"""Invariant bilinear form and the quadratic orbit form (second-type cases).

Both exist only when the module contains the negative of every weight, which
happens exactly for the second-type cases.  The bilinear form pairs opposite
weight coordinates with signs; the signs are forced, up to global scale, by
invariance under the root elements and are found by propagation from the top
weight.  The quadratic form vanishes on the orbit of the highest weight
vector; it starts from the equation of a weight square and is pushed down a
shortest path to the lowest weight, one root element substitution at a time.

Both are built from the root patterns: the sign propagation runs over every
entry of the rows of ``RepTables.dense`` at once, and a push x^T s x with
x = e + N (``_push``) is a column update then a row update of s along one
root's (source, target, sign) arrays.  The invariance check of the bilinear
form pushes H through each x_alpha(1) the same way, with no matrix product.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from .errors import DomainError, InternalConsistencyError, SpecMismatchError, UnsupportedCaseError
from .rep import rep_tables
from .rings import RingElem, RingSpec, _mod
from .rng import SplitMix64
from .roots import _fraction_rref
from .weights import Weight, WeightModule


def _require_second_type(wm: WeightModule) -> None:
    if wm.kind != "second":
        raise UnsupportedCaseError("the form is only defined for second-type cases")


# -- bilinear form ---------------------------------------------------------------


@lru_cache(maxsize=None)
def bilinear_form_signs(wm: WeightModule) -> dict:
    """Signs eps with h(u, v) = sum_lam eps_lam u_lam v_(-lam), invariant under
    every root element: eps_mu = -c * c' * eps_lam for each pattern entry
    lam -> mu with sign c, where c' is the sign of the entry -mu -> -lam of
    the same pattern.  eps spreads from the top weight, breadth first."""
    _require_second_type(wm)
    dst, sign = rep_tables(wm).dense
    idx = wm.index
    neg = np.array([idx[wm.minus(lam)] for lam in wm.weights])
    owner, srcs = np.nonzero(sign[:, : wm.dim])
    dsts, signs = dst[owner, srcs], sign[owner, srcs]
    factor = -signs * sign[owner, neg[dsts]]

    eps = np.zeros(wm.dim, dtype=np.int64)
    eps[0] = 1  # weights[0] is the top weight
    # each round sets a weight to +-1; a zero factor sets none and fails below
    while (new := (eps[dsts] == 0) & (factor * eps[srcs] != 0)).any():
        eps[dsts[new]] = factor[new] * eps[srcs[new]]
    if not eps.all():
        raise InternalConsistencyError("sign propagation did not reach every weight")
    if (eps[dsts] != factor * eps[srcs]).any():
        raise InternalConsistencyError("bilinear sign constraints conflict")
    return dict(zip(wm.weights, eps.tolist()))


def bilinear_matrix(wm: WeightModule) -> np.ndarray:
    eps = bilinear_form_signs(wm)
    h = np.zeros((wm.dim, wm.dim), dtype=np.int64)
    for lam in wm.weights:
        h[wm.idx(lam), wm.idx(wm.minus(lam))] = eps[lam]
    return h


def bilinear_invariance_holds(wm: WeightModule) -> bool:
    """Exhaustive check of g^T H g = H over all generators g = x_alpha(1),
    each a push of H (``_push``)."""
    h, patterns = bilinear_matrix(wm), rep_tables(wm).patterns
    return all(np.array_equal(_push(h.copy(), patterns[alpha]), h) for alpha in wm.case.phi)


def _push(s: np.ndarray, pattern) -> np.ndarray:
    """s <- x^T s x in place for x = e + N, N[dsts, srcs] = signs: s x is a
    column update, and x^T (s x) a row update."""
    srcs, dsts, signs = pattern
    s[:, srcs] += s[:, dsts] * signs
    s[srcs, :] += s[dsts, :] * signs[:, None]
    return s


# -- weight squares ----------------------------------------------------------------


@dataclass(frozen=True)
class WeightSquare:
    """A weight subset with a perfect matching by non-root differences."""

    members: tuple[Weight, ...]
    matching: tuple[tuple[Weight, Weight], ...]


def find_square(wm: WeightModule, lam: Weight, mu: Weight) -> WeightSquare:
    """Common neighbours of two weights at distance two, plus the pair itself,
    matched by non-root differences."""
    if wm.distance(lam, mu) != 2:
        raise DomainError("the defining pair must be at distance two")
    i, j = wm.idx(lam), wm.idx(mu)
    near = (wm.distances[i] == 1) & (wm.distances[j] == 1)
    near[[i, j]] = True
    members = tuple(wm.weights[k] for k in np.flatnonzero(near))
    if len(members) < 4:
        raise DomainError("the common neighbour set is too small to be a square")

    matching = []
    seen = set()
    for a in members:
        partners = [
            b
            for b in members
            if b != a and wm.root_between(a, b) is None
        ]
        if len(partners) != 1:
            raise DomainError("weight set is not a square: matching is not unique")
        b = partners[0]
        if a not in seen:
            matching.append((a, b) if wm.idx(a) < wm.idx(b) else (b, a))
            seen.update((a, b))
    return WeightSquare(members=members, matching=tuple(matching))


# -- quadratic form ------------------------------------------------------------------


@dataclass(frozen=True)
class QuadraticForm:
    """Integer quadratic form over unordered weight pairs, no diagonal terms."""

    wm: WeightModule
    coeffs: tuple[tuple[int, int, int], ...]  # (i, j, c) with i < j, canonical indices

    def coefficient(self, lam: Weight, mu: Weight) -> int:
        i, j = sorted((self.wm.idx(lam), self.wm.idx(mu)))
        return next((c for a, b, c in self.coeffs if (a, b) == (i, j)), 0)

    def evaluate_int(self, v) -> int:
        return sum(c * int(v[i]) * int(v[j]) for i, j, c in self.coeffs)

    @cached_property
    def _arrays(self) -> np.ndarray:
        return np.array(self.coeffs, dtype=np.int64).reshape(-1, 3).T

    def evaluate(self, v, ring: RingSpec) -> RingElem:
        """The form at a vector over the ring, from its blocks.  Per factor and
        slice, v[i] v[j] convolved (at most s (c - 1)^2, exact in the block
        dtype by ``matrices._dtype`` and ``check_exact``) is reduced, and the
        int64 coefficients are reduced before their product, so every sum is
        exact."""
        if v.spec != ring:
            raise SpecMismatchError(f"vector over {v.spec.describe()} vs {ring.describe()}")
        i, j, coeffs = self._arrays
        parts = []
        for f, blk in zip(ring.factors, v.blocks):
            s, c = f.layout
            a, b = blk[:, i], blk[:, j]
            slices = (_mod(sum(a[k] * b[t - k] for k in range(t + 1)), c) for t in range(s))
            parts.append(f.part([int(_mod(_mod(x * _mod(coeffs, c), c).sum(), c)) for x in slices]))
        return RingElem(ring, tuple(parts))

    def dual_through(self, wm_signs: dict) -> "QuadraticForm":
        """Transport to covector coordinates through the bilinear isomorphism."""
        wm = self.wm
        out = []
        for i, j, c in self.coeffs:
            lam, mu = wm.weights[i], wm.weights[j]
            ni, nj = wm.idx(wm.minus(lam)), wm.idx(wm.minus(mu))
            coeff = c * wm_signs[lam] * wm_signs[mu]
            a, b = sorted((ni, nj))
            out.append((a, b, coeff))
        return QuadraticForm(wm=wm, coeffs=tuple(sorted(out)))

    def to_json(self) -> list:
        return [[i, j, c] for i, j, c in self.coeffs]


def _orbit_vector_int(wm: WeightModule, rng: SplitMix64, roots, length: int = 14) -> np.ndarray:
    """A column of a random word over the roots, with integer parameters,
    applied to the top vector.  A step with |value| <= 2 at most triples the
    largest entry, so int64 holds every entry exactly for length < 39."""
    tables = rep_tables(wm)
    v = np.zeros(wm.dim, dtype=np.int64)
    v[wm.idx(wm.lam0)] = 1
    for _ in range(length):
        alpha = roots[rng.randrange(len(roots))]
        value = rng.randrange(5) - 2
        if value == 0:
            continue
        srcs, dsts, signs = tables.patterns[alpha]
        v[dsts] = v[dsts] + (signs * value) * v[srcs]
    return v


def _fraction_kernel(rows: list[list[int]], ncols: int) -> list[list[Fraction]]:
    """Right kernel of an integer matrix, solved exactly."""
    reduced, pivots = _fraction_rref(rows)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for row, pc in zip(reduced, pivots):
            vec[pc] = -row[fc]
        basis.append(vec)
    return basis


def square_equation(wm: WeightModule, square: WeightSquare, seed: int = 2026) -> QuadraticForm:
    """The quadratic equation supported on the matched pairs of a square,
    found as the kernel of evaluation on integer orbit vectors.  The kernel's
    words use only the roots joining two members of the square, so they
    spread the top vector over it (words over all of Phi rarely do in large
    modules); fresh words over all of Phi then check the equation."""
    if wm.lam0 not in square.members:
        raise DomainError("the square must contain the top weight")
    rng = SplitMix64(seed)
    pairs = [tuple(sorted((wm.idx(a), wm.idx(b)))) for a, b in square.matching]
    joining = [wm.root_between(a, b) for a in square.members for b in square.members]
    joining = list(dict.fromkeys(r for r in joining if r is not None))
    n_samples = 8 * len(pairs) + 40
    rows = []
    for _ in range(n_samples):
        v = _orbit_vector_int(wm, rng, joining)
        rows.append([int(v[i]) * int(v[j]) for i, j in pairs])
    kernel = _fraction_kernel(rows, len(pairs))
    if len(kernel) != 1:
        raise InternalConsistencyError(f"square equation kernel has dimension {len(kernel)}")
    vec = kernel[0]

    # normalize: +1 at the defining pair, integer entries
    lead = tuple(sorted((wm.idx(square.matching[0][0]), wm.idx(square.matching[0][1]))))
    lead_pos = pairs.index(lead)
    if vec[lead_pos] == 0:
        raise InternalConsistencyError("square equation does not involve the defining pair")
    vec = [v / vec[lead_pos] for v in vec]
    coeffs = []
    for (i, j), v in zip(pairs, vec):
        if v.denominator != 1:
            raise InternalConsistencyError("square equation is not integral after normalization")
        c = int(v)
        if c not in (-1, 1):
            raise InternalConsistencyError(f"square equation coefficient {c} is not a sign")
        coeffs.append((i, j, c))

    form = QuadraticForm(wm=wm, coeffs=tuple(sorted(coeffs)))
    for _ in range(200):
        v = _orbit_vector_int(wm, rng, wm.case.phi)
        if form.evaluate_int(v) != 0:
            raise InternalConsistencyError("square equation fails on a fresh orbit vector")
    return form


def _canonical_shortest_path(wm: WeightModule, start: Weight, goal: Weight) -> list[Weight]:
    path = [start]
    cur = start
    while cur != goal:
        d = wm.distance(cur, goal)
        nxt = next(
            (mu for mu in sorted(wm.neighbors(cur), key=wm.idx) if wm.distance(mu, goal) == d - 1),
            None,
        )
        if nxt is None:
            raise InternalConsistencyError("no descending neighbour on a shortest path")
        path.append(nxt)
        cur = nxt
    return path


def _form_matrix(form: QuadraticForm) -> np.ndarray:
    n = form.wm.dim
    s = np.zeros((n, n), dtype=np.int64)
    for i, j, c in form.coeffs:
        s[i, j] += c
        s[j, i] += c
    return s


def _form_from_matrix(wm: WeightModule, s: np.ndarray) -> QuadraticForm:
    if np.diagonal(s).any():
        raise InternalConsistencyError("quadratic form acquired diagonal terms")
    i, j = np.nonzero(np.triu(s))
    return QuadraticForm(wm=wm, coeffs=tuple(zip(i.tolist(), j.tolist(), s[i, j].tolist())))


@lru_cache(maxsize=None)
def build_pi_form(wm: WeightModule) -> QuadraticForm:
    """Quadratic form vanishing on the orbit of the highest weight vector,
    with a unit coefficient at the top/bottom weight pair."""
    _require_second_type(wm)
    lam0 = wm.lam0
    bottom = wm.minus(lam0)

    candidates = [mu for mu in wm.components[2] if wm.distance(lam0, mu) == 2]
    if not candidates:
        raise InternalConsistencyError("no distance-two weight in the third component")
    mu1 = min(candidates, key=wm.idx)

    square = find_square(wm, lam0, mu1)
    form = square_equation(wm, square)

    path = _canonical_shortest_path(wm, mu1, bottom)
    patterns = rep_tables(wm).patterns
    s = _form_matrix(form)
    for step in range(len(path) - 1):
        gamma = wm.root_between(path[step], path[step + 1])
        if gamma is None:
            raise InternalConsistencyError("path step is not a root")
        _push(s, patterns[gamma])
        corner = s[wm.idx(lam0), wm.idx(path[step + 1])]
        if corner not in (1, -1):
            raise InternalConsistencyError(f"intermediate corner coefficient {corner}")

    final = _form_from_matrix(wm, s)
    if final.coefficient(lam0, bottom) not in (1, -1):
        raise InternalConsistencyError("final corner coefficient is not a sign")
    return final


def pi_form_vanishes_on_samples(
    wm: WeightModule, form: QuadraticForm, ring: RingSpec, n_samples: int, seed: int
) -> bool:
    """Evaluate the form on columns of random words over the given ring."""
    from .rep import get_representation, sample_word_rng

    rng = SplitMix64(seed)
    rep = get_representation(wm, ring)
    atoms = []
    nonzero = [v for v in ring.elements() if not v.is_zero()] if ring.is_finite else [
        ring.el(v) for v in (-2, -1, 1, 2)
    ]
    for alpha in wm.case.phi:
        for v in nonzero:
            atoms.append(("x", alpha, v))
    for _ in range(n_samples):
        length = 2 + rng.randrange(6)
        g = sample_word_rng(rep, atoms, length, rng)
        col = g.column(wm.lam0)
        if not form.evaluate(col, ring).is_zero():
            return False
    return True
