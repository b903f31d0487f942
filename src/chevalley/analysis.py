"""Levels, parabolic membership, normalizer conditions, and the extraction of
root elements from overgroup samples.

Membership in an overgroup is never decided abstractly.  The module works with
two decidable surrogates: replayable generator words (membership by
construction) and necessary matrix conditions on rows and columns through the
top weight.

Every produced witness carries a trace of group operations from the supplied
element to the claimed root element.  Splits, conjugations and strips are
applied to actual elements.  The final corner reduction runs on root
coordinates alone: in the abelian unipotent radical U the Chevalley
commutator formula is linear, [x_beta(xi), x_s(1)] = x_(beta+s)(n xi) with
n = +-1, and [x_beta(xi), x_s(1)] = e when beta + s is not a root, so a
commutator of the word of the coordinates xi_beta with x_s(1) is the word of
the coordinates n xi_beta at beta + s.  The constants n are read off the
representation, one commutator word per pair (``_commute_table``).  The
reduction starts only from coordinates of an element that was checked to be
the word of its coordinates, so its trace replays to the claimed element.
"""

from __future__ import annotations

from collections import deque
from contextlib import suppress
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

from .errors import BudgetExhausted, DomainError, InternalConsistencyError, NonUnitError, UnsupportedCaseError
from .matrices import RMat, checked_inverse, mat_col, mat_row, pattern_images, signed_entries
from .rep import (
    Atom,
    GroupElement,
    Representation,
    _cross_component_mask,
    get_representation,
    is_component_blocked,
)
from .rings import Ideal, RingElem, RingSpec
from .roots import Root, height
from .weights import Weight, sigma_split

# -- level pairs -----------------------------------------------------------------


@dataclass(frozen=True)
class SigmaPair:
    """A pair of ideals recording which root elements of the two orbits an
    overgroup is allowed to contain."""

    plus: Ideal
    minus: Ideal

    def __post_init__(self):
        if self.plus.spec != self.minus.spec:
            raise DomainError("level ideals over different rings")

    @property
    def spec(self) -> RingSpec:
        return self.plus.spec

    @staticmethod
    def zero(spec: RingSpec) -> "SigmaPair":
        return SigmaPair(Ideal.zero(spec), Ideal.zero(spec))

    @staticmethod
    def full(spec: RingSpec) -> "SigmaPair":
        return SigmaPair(Ideal.unit(spec), Ideal.unit(spec))

    def reduce(self, by: Ideal) -> "SigmaPair":
        return SigmaPair(by.reduce_ideal(self.plus), by.reduce_ideal(self.minus))

    def __le__(self, other: "SigmaPair") -> bool:
        return self.plus <= other.plus and self.minus <= other.minus

    def describe(self) -> str:
        """The level as ``parse_sigma`` reads it, with R for the unit ideal."""
        return ",".join("R" if i.is_unit_ideal() else i.describe() for i in (self.plus, self.minus))

    def to_json(self):
        return {"plus": self.plus.to_json(), "minus": self.minus.to_json()}


def _generator_families(rep: Representation, sigma: SigmaPair) -> tuple:
    """The generating family as (roots, ideal) pairs: subsystem roots over the
    full ring, orbit roots over the respective ideal."""
    case = rep.case
    return (
        (case.delta, Ideal.unit(rep.ring)),
        (case.omega_plus, sigma.plus),
        (case.omega_minus, sigma.minus),
    )


def sigma_generator_atoms(rep: Representation, sigma: SigmaPair) -> list[Atom]:
    """The generating family: subsystem roots over the full ring, orbit roots
    over the respective ideal.  Zero parameters are dropped."""
    atoms: list[Atom] = []
    for roots, ideal in _generator_families(rep, sigma):
        values = [v for v in ideal.elements() if not v.is_zero()]
        atoms += [("x", alpha, v) for alpha in roots for v in values]
    return atoms


# -- matrix membership predicates ----------------------------------------------------


@lru_cache(maxsize=None)
def _off_indices(wm, lam: Weight):
    """The indices of the weights other than lam, and the flat indices of
    their entries in the lam column and in the lam row."""
    j = wm.idx(lam)
    others = np.array([i for i in range(wm.dim) if i != j], dtype=np.intp)
    return others, others * wm.dim + j, j * wm.dim + others


def in_parabolic(g: GroupElement, lam: Weight | None = None) -> bool:
    """Column through the given weight is a multiple of the identity column."""
    wm = g.rep.wm
    lam = wm.lam0 if lam is None else lam
    return not g.mat.nonzero_at(_off_indices(wm, lam)[1])


def in_opposite_parabolic(g: GroupElement, lam: Weight | None = None) -> bool:
    wm = g.rep.wm
    lam = wm.lam0 if lam is None else lam
    return not g.mat.nonzero_at(_off_indices(wm, lam)[2])


@lru_cache(maxsize=256)
def _pattern_table(rep: Representation, roots: tuple):
    """The patterns of the roots concatenated: (srcs, dsts, signs, owner),
    owner[k] the position in ``roots`` of the root of entry k, read off
    their rows of ``RepTables.dense``."""
    dst, sign = rep.tables.dense
    rows = np.array([rep.case.idx(alpha) for alpha in roots], dtype=np.intp)
    owner, srcs = np.nonzero(sign[rows, : rep.n])
    return srcs, dst[rows[owner], srcs], sign[rows[owner], srcs], owner


def _top_line_mask(g: GroupElement, atoms, sigma: SigmaPair) -> np.ndarray:
    """Per atom (root, value), whether the conjugate g X g^-1 of
    X = x_root(value) satisfies the congruence conditions of ``in_G_sigma``.

    Only the two lines the conditions read are computed, for all atoms in
    one batch: the top column g (X g^-1[:, t]) and the top row, as the column
    g^-T (X^T g[t, :]).  X acts on the column by its pattern and on the row
    by the transposed pattern, so each side is one gather and one matrix
    product (``pattern_images``), and every line equals the corresponding
    line of g X g^-1 entry for entry.  Each side then takes one ideal test.
    """
    if not atoms:
        return np.ones(0, dtype=bool)
    wm = g.rep.wm
    top = wm.idx(wm.lam0)
    others = _off_indices(wm, wm.lam0)[0]
    roots, values = zip(*atoms)
    srcs, dsts, signs, owner = _pattern_table(g.rep, roots)
    columns = pattern_images(g.mat, mat_col(g.inv_mat, top), (srcs, dsts, signs, owner), values)
    rows = pattern_images(
        g.inv_mat.transpose(), mat_row(g.mat, top), (dsts, srcs, signs, owner), values
    )
    lines = others[:, None] * len(atoms) + np.arange(len(atoms))  # off-top entries, line by line
    return columns.in_ideal_mask(sigma.minus, lines) & rows.in_ideal_mask(sigma.plus, lines)


def in_G_sigma(g: GroupElement, sigma: SigmaPair) -> bool:
    """Necessary matrix condition for the level-sigma congruence group: the top
    column reduces into the parabolic mod the minus ideal and the top row into
    the opposite one mod the plus ideal."""
    wm = g.rep.wm
    top = wm.idx(wm.lam0)
    others = _off_indices(wm, wm.lam0)[0]
    column, row = mat_col(g.mat, top), mat_row(g.mat, top)
    return column.in_ideal_at(sigma.minus, others) and row.in_ideal_at(sigma.plus, others)


def in_normalizer(g: GroupElement, sigma: SigmaPair) -> bool:
    """Matrix conditions cutting out the normalizer of the level-sigma
    elementary group: the congruence conditions for first-type cases, relaxed
    at the opposite corner for second-type ones."""
    wm = g.rep.wm
    if wm.kind == "first":
        return in_G_sigma(g, sigma)
    top, bottom, middle = _corner_positions(wm)
    row = mat_row(g.mat, top)
    if not row.in_ideal_at(sigma.plus, middle):
        return False
    inv_column = mat_col(g.inv_mat, top)
    if not inv_column.in_ideal_at(sigma.minus, middle):
        return False
    if not row.line_ideals(bottom)[0] * sigma.minus <= sigma.plus:
        return False
    return inv_column.line_ideals(bottom)[0] * sigma.plus <= sigma.minus


@lru_cache(maxsize=None)
def _corner_positions(wm):
    """The top weight's index, the index of its negative (as a one-element
    array), and the indices of every other weight."""
    top, bottom = wm.idx(wm.lam0), wm.idx(wm.minus(wm.lam0))
    middle = np.array([i for i in range(wm.dim) if i not in (top, bottom)], dtype=np.intp)
    return top, np.array([bottom], dtype=np.intp), middle


# -- root-type matrix identities --------------------------------------------------------


@lru_cache(maxsize=None)
def _distance_mask(wm):
    """The flat indices of the weight pairs at graph distance two or more."""
    return np.flatnonzero(wm.distances >= 2)


@lru_cache(maxsize=None)
def _root_difference_positions(rep: Representation):
    """The entries over every root difference, root after root in the order
    of Phi: (their flat indices, the position of each root's first entry,
    the index in Phi of each entry's root)."""
    srcs, dsts, _, owner = _pattern_table(rep, rep.case.phi)
    return dsts * rep.n + srcs, np.searchsorted(owner, owner), owner


def root_type_failures(g: GroupElement) -> list[str]:
    """Violated matrix identities of conjugates of root elements.

    The first is (g - e)^2 = 0.  For an element that preserves the invariant
    form, (g - e)^2 = g (g - 2e + g^-1) with g^-1 = adj(g), so it is read as
    g + adj(g) = 2e, one gather and no matrix product; any other element
    squares g - e."""
    rep = g.rep
    failures = []
    if g._isometry:
        square_zero = (g.mat + rep.adjoint(g.mat)).is_scalar(2)
    else:
        nil = g.mat - _identity_mat(rep)
        square_zero = not (nil * nil).nonzero_at()
    if not square_zero:
        failures.append("square of (g - e) is nonzero")
    if g.mat.nonzero_at(_distance_mask(rep.wm)):
        failures.append("entry at weight distance >= 2 survives")
        return failures
    # entries over equal root differences agree up to one entrywise sign
    index, ref, owner = _root_difference_positions(rep)
    coherent = g.mat.signed_copies_at(index, ref)
    if not coherent.all():
        alpha = rep.case.phi[owner[np.argmin(coherent)]]
        failures.append(f"sign-incoherent entries over root {alpha}")
    return failures


# -- parabolic splits -------------------------------------------------------------------


@lru_cache(maxsize=None)
def _identity_mat(rep: Representation):
    """The identity matrix of the representation; shared, never mutate it."""
    return rep.identity().mat


@lru_cache(maxsize=None)
def _radical_frozen_mask(wm, side: int):
    """The flat indices where a radical part must agree with the identity:
    everything except the strictly upper component blocks (side +1) or the
    strictly lower ones (side -1)."""
    comp = np.array([wm.component_of(w) for w in wm.weights])
    return np.flatnonzero(side * (comp[None, :] - comp[:, None]) <= 0)


def _block_diagonal_part(g: GroupElement) -> GroupElement:
    """The diagonal component blocks L of g, with their inverse.  For
    g = u L with u block-unitriangular, g^-1 = L^-1 u^-1 has the diagonal
    blocks L^-1, so those of g^-1 are taken when they invert L; otherwise L
    is inverted by elimination, which is the invertibility check
    (``checked_inverse``).  Over the integers, where elimination is refused,
    this lets a word split."""
    cross = _cross_component_mask(g.rep.wm)

    def diagonal(m: RMat) -> RMat:
        out = m.copy()
        for sl in (sl for blk in out.blocks for sl in blk):  # per slice: faster than a leading full slice
            sl.reshape(-1)[cross] = 0
        return out

    mat = diagonal(g.mat)
    return GroupElement(g.rep, mat, checked_inverse(mat, diagonal(g.inv_mat)))


def _levi_part(g: GroupElement) -> GroupElement:
    """``_block_diagonal_part``, with a block that is singular, or that
    elimination refuses over Z, reported as ``DomainError``."""
    try:
        return _block_diagonal_part(g)
    except (NonUnitError, UnsupportedCaseError) as exc:
        raise DomainError(f"diagonal block is not invertible: {exc}") from exc


def _levi_split(g: GroupElement, lam: Weight | None, side: int) -> tuple[GroupElement, GroupElement]:
    """(radical part, Levi part) of a member of the parabolic at lam
    (side +1) or of its opposite (side -1).  At the top weight the Levi part
    is the block-diagonal restriction, and the radical part must be
    unitriangular across components on its side (``DomainError``); at any
    other weight the split is carried to the top by the monomial element of
    the simple word from lam to the top, and back."""
    rep = g.rep
    wm = rep.wm
    lam = wm.lam0 if lam is None else lam
    member, name = (in_parabolic, "parabolic") if side > 0 else (in_opposite_parabolic, "opposite parabolic")
    if not member(g, lam):
        raise DomainError(f"element is not in the {name} at the given weight")
    if lam != wm.lam0:
        word = wm.simple_word_to_top(lam)
        w = rep.element_from_word(tuple(("w", rep.case.simple_roots[i], rep.ring.one) for i in word))
        winv = w.inverse()
        return tuple(part.conjugate(winv) for part in _levi_split(g.conjugate(w), None, side))
    levi = _levi_part(g)
    u = g * levi.inverse()
    split = "parabolic split" if side > 0 else "opposite split"
    if (u.mat - _identity_mat(rep)).nonzero_at(_radical_frozen_mask(wm, side)):
        raise DomainError(f"{split} is not unitriangular across components")
    if not (u * levi) == g:
        raise InternalConsistencyError(f"{split} does not multiply back")
    return u, levi


def levi_unipotent_split(g: GroupElement, lam: Weight | None = None) -> tuple[GroupElement, GroupElement]:
    """Factor a parabolic member as (unipotent radical part, Levi part); the
    radical part maps only toward lower component indices (``_levi_split``)."""
    return _levi_split(g, lam, 1)


def opposite_levi_split(g: GroupElement, lam: Weight | None = None) -> tuple[GroupElement, GroupElement]:
    """Factor a member of the opposite parabolic as (opposite unipotent part,
    Levi part); the unipotent part maps only toward higher component
    indices (``_levi_split``)."""
    return _levi_split(g, lam, -1)


@lru_cache(maxsize=None)
def _coord_positions(rep: Representation, lam: Weight, roots: tuple, on_row: bool):
    """Where the coordinates of the given roots sit on the lam row (or
    column), with the structure constants that turn entries into
    coordinates: (positions, signs), read off ``RepTables.dense``: beta
    moves lam to mu on the column, -beta on the row, with beta's sign at mu."""
    dst, sign = rep.tables.dense
    k, i = np.array([rep.case.idx(beta) for beta in roots], dtype=np.intp), rep.wm.idx(lam)
    positions = dst[rep.case.reflections[k, k] if on_row else k, i]
    signs = sign[k, positions if on_row else i]  # 0 where the root does not shift
    if not signs.all():
        raise DomainError(f"root {roots[int(np.argmin(signs != 0))]} does not shift the weight")
    return positions, signs


def _line_coords(h: GroupElement, lam: Weight, roots, on_row: bool) -> dict:
    """The nonzero coordinates on the lam line; the line of an unread word is
    a moved basis vector (``GroupElement.row``/``column``)."""
    roots = tuple(roots)
    positions, signs = _coord_positions(h.rep, lam, roots, on_row)
    line = h.row(lam) if on_row else h.column(lam)
    return {
        beta: val
        for beta, val in zip(roots, signed_entries(line, positions, signs))
        if val is not None
    }


def coords_row(h: GroupElement, lam: Weight, roots) -> dict:
    """Root coordinates of an abelian unipotent element read from the lam row:
    the nonzero ones, in the order of the roots."""
    return _line_coords(h, lam, roots, True)


def coords_col(h: GroupElement, lam: Weight, roots) -> dict:
    """Coordinates of an opposite unipotent element read from the lam column."""
    return _line_coords(h, lam, roots, False)


@lru_cache(maxsize=None)
def _negated(roots: tuple) -> tuple:
    return tuple(tuple(-x for x in r) for r in roots)


def chevalley_matsumoto(g: GroupElement) -> tuple[GroupElement, GroupElement, GroupElement]:
    """Factor g with a unit top corner as v * g1 * u with u in the unipotent
    radical, v in the opposite one, and g1 in the Levi."""
    rep = g.rep
    lam0 = rep.wm.lam0
    corner = g.entry(lam0, lam0)
    if not corner.is_unit():
        raise DomainError("decomposition needs a unit top corner")
    ainv = corner.inv()

    u_coords = coords_row(g, lam0, rep.case.omega_plus)
    u = rep.element_from_word(tuple(("x", alpha, ainv * xi) for alpha, xi in u_coords.items()))

    g2 = g * u.inverse()
    v_coords = coords_col(g2, lam0, _negated(rep.case.omega_plus))
    v = rep.element_from_word(tuple(("x", beta, ainv * eta) for beta, eta in v_coords.items()))

    g1 = v.inverse() * g2
    if not (in_parabolic(g1) and in_opposite_parabolic(g1)):
        raise DomainError("middle factor is not scalar on the top row and column")
    if not is_component_blocked(g1):
        raise DomainError("middle factor maps across components")
    if not (v * g1 * u) == g:
        raise DomainError("decomposition does not multiply back to the element")
    return v, g1, u


# -- witnesses and replayable traces ------------------------------------------------------

TraceOp = tuple


@dataclass(frozen=True)
class Witness:
    """A root element certified inside the subgroup generated by the seed and
    the subsystem, as a replayable trace."""

    side: int  # +1 for the upper orbit, -1 for the lower
    root: Root
    value: RingElem
    trace: tuple[TraceOp, ...]

    def to_json(self):
        return {
            "side": self.side,
            "root": list(self.root),
            "value": self.value.to_json(),
            "trace": [_trace_op_json(op) for op in self.trace],
        }


def _atom(rep: Representation, atom: Atom) -> GroupElement:
    return rep.element_from_word((atom,))


def _atom_json(atom: Atom):
    a_kind, root, value = atom
    return [a_kind, list(root), value.to_json()]


class _Op(NamedTuple):
    apply: Callable  # (rep, current element or None, argument) -> next element
    encode: Callable  # argument -> JSON


# Every trace op but ``seed``, which starts a trace at the supplied element.
# Extraction records and applies each step through ``_step``; ``replay_trace``
# and ``_trace_op_json`` read the same table.
_TRACE_OPS = {
    "atom_seed": _Op(lambda rep, h, atom: _atom(rep, atom), _atom_json),
    "unipotent_part": _Op(lambda rep, h, lam: levi_unipotent_split(h, lam)[0], list),
    "opposite_unipotent_part": _Op(lambda rep, h, lam: opposite_levi_split(h, lam)[0], list),
    "rmul": _Op(lambda rep, h, atom: h * _atom(rep, atom), _atom_json),
    "commute": _Op(lambda rep, h, atom: h.commutator(_atom(rep, atom)), _atom_json),
    "conj_atom": _Op(lambda rep, h, atom: _atom(rep, atom).conjugate(h), _atom_json),
    "inv_conj_atom": _Op(lambda rep, h, atom: _atom(rep, atom).conjugate(h.inverse()), _atom_json),
}


def _step(trace: list[TraceOp], h: GroupElement, kind: str, arg) -> GroupElement:
    """Record one op on the trace and return its result on h."""
    trace.append((kind, arg))
    return _TRACE_OPS[kind].apply(h.rep, h, arg)


def _trace_op_json(op: TraceOp):
    kind = op[0]
    if kind == "seed":
        return [kind]
    if kind not in _TRACE_OPS:
        raise DomainError(f"unknown trace op {kind!r}")
    return [kind, _TRACE_OPS[kind].encode(op[1])]


def replay_trace(rep: Representation, trace, seed: GroupElement | None = None) -> GroupElement:
    """The element a trace builds: ``seed`` starts at the seed element, then
    every other op applies its ``_TRACE_OPS`` entry.  A malformed trace is a
    DomainError."""
    h: GroupElement | None = None
    for op in trace:
        kind = op[0]
        if kind == "seed":
            if seed is None:
                raise DomainError("trace needs a seed element")
            h = seed
        elif kind not in _TRACE_OPS:
            raise DomainError(f"unknown trace op {kind!r}")
        elif h is None and kind != "atom_seed":
            raise DomainError(f"trace op {kind!r} has no element to act on")
        else:
            h = _TRACE_OPS[kind].apply(rep, h, op[1])
    if h is None:
        raise DomainError("empty trace")
    return h


@dataclass(frozen=True)
class MembershipVerdict:
    reason: str


# -- extraction from the parabolic ----------------------------------------------------------


def _by_height(root: Root):
    """The canonical order of roots: by height, then lexicographically."""
    return height(root), root


def _simple_raiser(case, beta: Root) -> Root:
    """A simple root whose sum with the given positive root is again a root."""
    for simple in case.simple_roots:
        if case.root_add(beta, simple) is not None:
            return simple
    raise InternalConsistencyError(f"no simple raiser for {beta}")


def _corner_coords(h: GroupElement, side: int) -> dict:
    """The orbit coordinates of h on the top row (side +1) or the top column
    (side -1)."""
    case, lam0 = h.rep.case, h.rep.wm.lam0
    if side > 0:
        return coords_row(h, lam0, case.omega_plus)
    return coords_col(h, lam0, _negated(case.omega_plus))


def _is_word_of(h: GroupElement, coords: dict) -> bool:
    """h is the word of the coordinates (root -> value), taken in the
    canonical root order."""
    word = tuple(("x", b, coords[b]) for b in sorted(coords, key=_by_height))
    return h == h.rep.element_from_word(word)


def _strip_failure(h: GroupElement, coords: dict, what: str) -> Exception:
    """DomainError when h, before a failed strip, is not the word of its line
    coordinates (a matrix-only input outside the group); else ``what``."""
    if not _is_word_of(h, coords):
        return DomainError("the radical element is not the word of its line coordinates")
    return InternalConsistencyError(what)


def _strip(h: GroupElement, trace: list[TraceOp], coords: dict, keep) -> GroupElement:
    """Multiply away every coordinate whose root is not in ``keep``, in the
    canonical root order."""
    for b, v in sorted(coords.items(), key=lambda kv: _by_height(kv[0])):
        if b not in keep:
            h = _step(trace, h, "rmul", ("x", b, -v))
    return h


@lru_cache(maxsize=None)
def _commute_table(rep: Representation, side: int) -> dict:
    """The commutator formula in the radical of the given side, read off the
    representation: (s, beta) -> (beta + s, n) for every simple root s
    (negated on side -1) and orbit root beta of that side with beta + s a
    root, where [x_beta(xi), x_s(1)] = x_(beta+s)(n xi).

    n is the one coordinate on the top line of the word
    x_beta(1) x_s(1) x_beta(-1) x_s(-1), a moved basis vector, so no matrix
    is built; a line with any other coordinates raises
    InternalConsistencyError."""
    case, one = rep.case, rep.ring.one
    orbit, simples = case.omega_plus, case.simple_roots
    if side < 0:
        orbit, simples = _negated(orbit), _negated(simples)
    table = {}
    for s in simples:
        for beta in orbit:
            gamma = case.root_add(beta, s)
            if gamma is None:
                continue
            word = (("x", beta, one), ("x", s, one), ("x", beta, -one), ("x", s, -one))
            coords = _corner_coords(rep.element_from_word(word), side)
            if list(coords) != [gamma]:
                raise InternalConsistencyError(f"[x_{beta}, x_{s}] is not a root element at {gamma}")
            table[s, beta] = gamma, coords[gamma]
    return table


def _greedy_to_corner(
    rep: Representation,
    coords: dict,
    trace: list[TraceOp],
    ideal: Ideal,
    side: int,
) -> Witness:
    """Drive an all-hot unipotent product to a single root element at the
    extreme root by commutators with simple subsystem root elements, on its
    coordinates.

    ``coords`` (root -> value) must be the coordinates of the element the
    trace builds, and that element must be the word of its coordinates.
    Each commutator with x_s(1) is recorded on the trace and maps the
    coordinates to {beta + s: n xi_beta} by ``_commute_table``; no element
    is built."""
    case = rep.case
    table = _commute_table(rep, side)
    target = case.max_root if side > 0 else tuple(-x for x in case.max_root)
    guard = 4 * len(case.omega_plus) * height(case.max_root) + 16
    while True:
        guard -= 1
        if guard < 0:
            raise InternalConsistencyError("corner reduction did not terminate")
        if any(v in ideal for v in coords.values()):
            raise InternalConsistencyError("cold coordinate appeared during reduction")
        if not coords:
            raise InternalConsistencyError("all coordinates vanished during reduction")
        roots = sorted(coords.keys(), key=_by_height)
        if len(roots) == 1 and roots[0] == target:
            return Witness(side=side, root=target, value=coords[target], trace=tuple(trace))
        pick = next((r for r in roots if r != target), None)
        if pick is None:
            raise InternalConsistencyError("stuck at the extreme root with company")
        if side > 0:
            s = _simple_raiser(case, pick)
        else:
            s = tuple(-x for x in _simple_raiser(case, tuple(-x for x in pick)))
        trace.append(("commute", ("x", s, rep.ring.one)))
        coords = {table[s, b][0]: table[s, b][1] * v for b, v in coords.items() if (s, b) in table}


def extract_from_parabolic(g: GroupElement, ideal: Ideal, side: int = +1) -> Witness | None:
    """From a parabolic member whose unipotent part escapes the ideal, produce
    a single root element at the extreme root with a value outside the ideal.

    Returns None when every unipotent coordinate lies inside the ideal.
    Otherwise the unipotent part must be the word of its coordinates, as it
    is for every group element; a matrix-only input whose part is not raises
    DomainError.  The cold coordinates are stripped and the hot ones reduced
    by ``_greedy_to_corner``; the returned trace replays from the supplied
    element to the claimed root element.
    """
    rep = g.rep
    trace: list[TraceOp] = [("seed",)]
    part = "unipotent_part" if side > 0 else "opposite_unipotent_part"
    u = _step(trace, g, part, rep.wm.lam0)
    coords = _corner_coords(u, side)
    hot = {r: v for r, v in coords.items() if v not in ideal}
    if not hot:
        return None
    if not _is_word_of(u, coords):
        raise DomainError("the unipotent part is not the word of its coordinates")
    _strip(u, trace, coords, hot)  # records the strip; the reduction reads no element
    return _greedy_to_corner(rep, hot, trace, ideal, side)


# -- extraction from the stabilizer of a lower weight line ------------------------------------


def _first_escape(g: GroupElement, roots, sigma: SigmaPair, inverse_side: bool = False) -> Root | None:
    """First root gamma (canonical order) whose unit root element escapes the
    congruence conditions after conjugation by g (or by its inverse).  The
    top lines of every candidate conjugate come from one batched pass
    (``_top_line_mask``); no conjugate is built."""
    order = sorted(roots, key=_by_height)
    one = g.rep.ring.one
    passes = _top_line_mask(g.inverse() if inverse_side else g, [(gamma, one) for gamma in order], sigma)
    return None if passes.all() else order[int(np.argmin(passes))]


def extract_from_weight_stabilizer(
    g: GroupElement,
    lam1: Weight,
    sigma: SigmaPair,
    budget: int = 64,
) -> Witness | MembershipVerdict:
    """Extraction chain for a root-type member of the stabilizer of a first
    component weight line.

    Either certifies that the element satisfies the plus-side congruence
    conditions, or produces a single root element whose value escapes the
    corresponding ideal, as a replayable trace from the element.  A
    matrix-only input whose radical element at lam1 is not the word of its
    line coordinates, so that stripping fails, raises DomainError.
    """
    rep = g.rep
    wm = rep.wm
    case = rep.case
    one = rep.ring.one
    if wm.component_of(lam1) != 1:
        raise DomainError("weight must lie in the first non-trivial component")
    failures = root_type_failures(g)
    if failures:
        raise DomainError(f"element is not of root type: {failures[0]}")
    if not in_parabolic(g, lam1):
        raise DomainError("element does not stabilize the weight line")

    plus_only = SigmaPair(sigma.plus, Ideal.unit(rep.ring))
    if in_G_sigma(g, plus_only):
        return MembershipVerdict("element satisfies the plus-side congruence conditions")

    split = sigma_split(wm, lam1)
    trace: list[TraceOp] = [("seed",)]

    gamma1 = _first_escape(g, split.core, plus_only)
    if gamma1 is None:
        raise InternalConsistencyError("no escaping conjugate in the overlap core")
    g1 = _step(trace, g, "conj_atom", ("x", gamma1, one))

    _, l1 = levi_unipotent_split(g1, lam1)
    if not in_G_sigma(l1, sigma):
        # the Levi part escapes: push the escape into the unipotent radical
        gamma2 = _first_escape(l1, split.zero, sigma, inverse_side=True)
        if gamma2 is None:
            raise InternalConsistencyError("no escaping conjugate in the shift subsystem roots")
        atom2: Atom = ("x", gamma2, one)
        h = _step(trace, g1, "inv_conj_atom", atom2)
        if not h == _TRACE_OPS["inv_conj_atom"].apply(rep, l1, atom2):
            raise InternalConsistencyError("abelian radical commutation failed")
    else:
        gamma2 = _first_escape(g1, split.core, plus_only)
        if gamma2 is None:
            raise InternalConsistencyError("no second escaping conjugate in the core")
        g2 = _step(trace, g1, "conj_atom", ("x", gamma2, one))
        h = _step(trace, g2, "unipotent_part", lam1)
        if not in_G_sigma(h.inverse() * g2, sigma):  # the Levi part of g2
            raise InternalConsistencyError("conjugated Levi part escaped unexpectedly")
        if in_G_sigma(h, sigma):
            raise InternalConsistencyError("unipotent part does not carry the escape")

    beta0 = split.minus[0]
    plus_roots = set(split.plus)
    while budget > 0:
        budget -= 1
        if not in_parabolic(h, lam1):
            raise InternalConsistencyError("radical element left the line stabilizer")
        coords = coords_row(h, lam1, split.all_roots)
        hot_plus = {b: v for b, v in coords.items() if b in plus_roots and v not in sigma.plus}
        xi0 = coords.get(beta0)
        if hot_plus:
            if xi0 is None or xi0 in sigma.minus:
                # strip every certified factor, leaving the hot upper product
                stripped = _strip(h, trace, coords, hot_plus)
                if not _is_word_of(stripped, hot_plus):
                    raise _strip_failure(h, coords, "stripping left a non-radical remainder")
                return _greedy_to_corner(rep, hot_plus, trace, sigma.plus, +1)
            # the lower factor is not certified: shift it away
            pivot = min(hot_plus, key=_by_height)
            options = [
                gamma
                for gamma in split.overlap
                if case.root_add(pivot, gamma) is not None and case.root_add(gamma, beta0) is None
            ]
            if not options:
                raise InternalConsistencyError("no shifting root for the hot pivot")
            best = next(
                (gm for gm in options if tuple(b - c for b, c in zip(beta0, gm)) not in coords),
                options[0],
            )
            h = _step(trace, h, "commute", ("x", best, one))
            continue
        if xi0 is not None and xi0 not in sigma.minus:
            if not _strip(h, trace, coords, {beta0}) == rep.x(beta0, xi0):
                raise _strip_failure(h, coords, "stripping did not leave a single root element")
            return Witness(side=-1, root=beta0, value=xi0, trace=tuple(trace))
        raise InternalConsistencyError("element re-entered the congruence conditions")
    raise BudgetExhausted("weight-stabilizer extraction ran out of budget")


# -- extraction from a nilpotent congruence subgroup ---------------------------------------------


def nilpotent_vanishing_check(g: GroupElement, b: Ideal) -> bool:
    """Entries at weight-graph distance two or more vanish for members of the
    congruence subgroup of a square-zero ideal."""
    rep = g.rep
    wm = rep.wm
    if not b.square().is_zero():
        raise DomainError("ideal must square to zero")
    if not rep.reduce(g, b).is_identity():
        raise DomainError("element is not in the congruence subgroup of the ideal")
    return not g.mat.nonzero_at(_distance_mask(wm))


@dataclass(frozen=True)
class NilpotentStep:
    element: GroupElement
    lam1: Weight
    trace: tuple[TraceOp, ...]


def extract_from_nilpotent(g: GroupElement, b: Ideal) -> NilpotentStep:
    """Turn a congruence-subgroup member outside the opposite parabolic into a
    weight-line stabilizer outside it, ready for the stabilizer extraction."""
    rep = g.rep
    wm = rep.wm
    if in_opposite_parabolic(g, None):
        raise DomainError("element lies in the opposite parabolic")
    if not nilpotent_vanishing_check(g, b):
        raise InternalConsistencyError("distance vanishing fails for a congruence member")
    lam0 = wm.lam0
    lam1 = next(
        (lam for lam in wm.weights if lam != lam0 and not g.mat.is_zero_at(wm.idx(lam0), wm.idx(lam))),
        None,
    )
    if lam1 is None:
        raise InternalConsistencyError("no nonzero top-row entry despite the parabolic check")
    if wm.distance(lam0, lam1) != 1:
        raise InternalConsistencyError("escaping entry is not adjacent to the top weight")

    nu = wm.neighbor_in_component(lam1)
    # the conjugating root element must move nu up to lam1; the dual choice
    # would push a unit-sized entry into the moved column
    alpha = wm.root_between(lam1, nu)
    if alpha is None or alpha[rep.case.alpha1_index] != 0:
        raise InternalConsistencyError("component neighbour difference is not a subsystem root")
    atom: Atom = ("x", alpha, rep.ring.one)
    trace: list[TraceOp] = [("seed",)]
    h = _step(trace, g, "conj_atom", atom)

    # the conjugating root element scales the relevant inverse column
    col = g.inverse().column(lam1)
    moved = col.copy()
    moved.apply_x_left(rep.tables.move("x", alpha), rep.ring.one)
    scale = g.inv_entry(nu, lam1)
    entries = [(moved.entry(i), col.entry(i)) for i in range(wm.dim)]
    if not any(all(m == c * (rep.ring.one + s) for m, c in entries) for s in (scale, -scale)):
        raise InternalConsistencyError("line stabilization identity fails")

    if not in_parabolic(h, lam1):
        raise InternalConsistencyError("conjugate does not stabilize the weight line")
    if in_opposite_parabolic(h, None):
        raise InternalConsistencyError("conjugate fell into the opposite parabolic")
    if g.mat.is_zero_at(wm.idx(lam0), wm.idx(lam1)) or h.mat.is_zero_at(wm.idx(lam0), wm.idx(nu)):
        raise InternalConsistencyError("top-row escape did not transfer")
    return NilpotentStep(element=h, lam1=lam1, trace=tuple(trace))


# -- column stabilizers and corner ideals -----------------------------------------------------


def column_stabilizer_pair(
    g: GroupElement, lam1: Weight, mu: Weight, nu: Weight
) -> GroupElement:
    """The two-root product built from matrix entries of a root-type element
    that stabilizes its lam1 column exactly."""
    rep = g.rep
    wm = rep.wm
    if not (wm.distance(lam1, mu) == 1 and wm.distance(lam1, nu) == 1 and wm.distance(mu, nu) == 1):
        raise DomainError("the three weights must be pairwise adjacent")
    failures = root_type_failures(g)
    if failures:
        raise DomainError(f"element is not of root type: {failures[0]}")
    alpha = wm.root_between(lam1, mu)
    beta = wm.root_between(lam1, nu)
    c_mu = rep.sign(mu, alpha)
    c_nu = rep.sign(nu, beta)
    xi_a = g.entry(nu, lam1)
    if c_mu < 0:
        xi_a = -xi_a
    xi_b = -g.entry(mu, lam1)
    if c_nu < 0:
        xi_b = -xi_b
    return rep.element_from_word((("x", alpha, xi_a), ("x", beta, xi_b)))


def corner_ideals(g: GroupElement, lam1: Weight) -> tuple[Ideal, Ideal, Ideal, Ideal]:
    """Ideals generated by the first-component column and row entries and by
    the two corner entries at the top weight.

    One table per element holds these four ideals for every first-component
    weight.  It is computed on the first read, one ``line_ideals`` gather per
    ideal, and kept with the element."""
    wm = g.rep.wm
    if g.corner_table is None:
        sides = [g.mat.line_ideals(index) for index in _corner_lines(wm)]
        g.corner_table = dict(zip(wm.lambda1, zip(*sides)))
    if lam1 not in g.corner_table:
        raise DomainError(f"{lam1} is not a first-component weight")
    return g.corner_table[lam1]


@lru_cache(maxsize=None)
def _corner_lines(wm):
    """The flat index of each corner ideal's lines, one line per weight of
    J = lambda1 along the last axis: in its column, the rest of J (column i
    of ``rest`` is J without J_i) and the top entry; then the same two in
    its row."""
    n, j = wm.dim, np.array([wm.idx(mu) for mu in wm.lambda1], dtype=np.intp)
    m = len(j)
    rest = np.broadcast_to(j, (m, m))[~np.eye(m, dtype=bool)].reshape(m, m - 1).T
    top = wm.idx(wm.lam0)
    return rest * n + j, top * n + j, j * n + rest, j * n + top


# -- transporter and level certificates -------------------------------------------------------


def transporter_check(g: GroupElement, sigma: SigmaPair) -> bool:
    """Conjugation by g carries every level generator into the congruence
    conditions.

    Only the two lines of each conjugate g X g^-1 that ``in_G_sigma`` reads
    are computed, for every atom in one batched pass (``_top_line_mask``):
    one gather and one matrix product per side, then one ideal test per side.

    One atom per root decides the whole family.  For
    X = x_alpha(xi) = e + xi P_alpha, the off-top entries of both lines are xi
    times those of g P_alpha g^-1, so the parameters xi that pass form an
    ideal, and the family passes exactly when a generator of each parameter
    ideal does.  The test suite checks the verdicts against the full
    conjugates of every enumerated atom, ``in_G_sigma(x.conjugate(g), sigma)``.
    """
    return bool(_top_line_mask(g, _family_atoms(g.rep, sigma), sigma).all())


def _family_atoms(rep: Representation, sigma: SigmaPair) -> list[tuple[Root, RingElem]]:
    """One (root, value) atom per root of the generating family, the value a
    generator of the root's ideal; the roots of a zero ideal are left out."""
    atoms = []
    for roots, ideal in _generator_families(rep, sigma):
        if not ideal.is_zero():
            value = ideal.generator()
            atoms += [(alpha, value) for alpha in roots]
    return atoms


@lru_cache(maxsize=None)
def _orbit_sides(case) -> dict:
    """+1 for the upper orbit's roots, -1 for the lower one's; the
    subsystem's roots are absent."""
    return {r: +1 for r in case.omega_plus} | {r: -1 for r in case.omega_minus}


def _word_in_level(rep: Representation, word, sigma: SigmaPair) -> bool:
    """Every factor of the word lies in E(sigma): a subsystem root's always;
    x_alpha(v) of an orbit root when v lies in its side's ideal; a w or h
    factor of an orbit root, a word in x_alpha and x_-alpha with unit values,
    when both sides' ideals are the unit ideal."""
    sides, ideals = _orbit_sides(rep.case), {+1: sigma.plus, -1: sigma.minus}
    both = sigma.plus.is_unit_ideal() and sigma.minus.is_unit_ideal()
    factors = rep._factors(word)
    return all(root not in sides or (v in ideals[sides[root]] if kind == "x" else both) for kind, root, v in factors)


def generators_in_normalizer(
    rep: Representation, gen_atoms: list[Atom], extra: list[GroupElement], sigma: SigmaPair
) -> list[GroupElement]:
    """The generators of H = <gen_atoms, extra> outside the normalizer N of
    the level-sigma elementary group.  Exact: N is a group, so H <= N exactly
    when the list is empty.

    A generator whose word lies in E(sigma) (``_word_in_level``) is in N by
    definition and is not tested; an atom is a one-atom word, and an extra
    without a word is always tested.  Each other generator is tested with
    ``in_normalizer`` and with ``transporter_check``; the two are independent
    characterisations, so a disagreement raises InternalConsistencyError.
    """
    generators = [_atom(rep, atom) for atom in gen_atoms if not _word_in_level(rep, (atom,), sigma)]
    generators += [g for g in extra if g.word is None or not _word_in_level(rep, g.word, sigma)]
    failing = []
    for g in generators:
        inside = in_normalizer(g, sigma)
        if inside != transporter_check(g, sigma):
            raise InternalConsistencyError(
                "normalizer conditions and transporter check disagree on a generator"
            )
        if not inside:
            failing.append(g)
    return failing


@dataclass(frozen=True)
class LevelCertificate:
    """Witnessed lower bound for the level of a generated subgroup, and why
    the search stopped: ``closed`` when every generator normalizes the
    elementary group of that level, which proves the sandwich there;
    ``budget`` or ``unresolved`` when the search ended without it."""

    witnesses: list[Witness]
    lower: SigmaPair
    target: SigmaPair
    matched: bool
    stop: str

    @property
    def normalizer_consistent(self) -> bool:
        return self.stop == "closed"

    def to_json(self):
        return {
            "witnesses": [w.to_json() for w in self.witnesses],
            "lower": self.lower.to_json(),
            "target": self.target.to_json(),
            "matched": self.matched,
            "normalizer_consistent": self.normalizer_consistent,
            "stop": self.stop,
        }


def _word_trace(g: GroupElement) -> tuple[TraceOp, ...]:
    """The ops that build g from its word, or ``seed`` when it has none."""
    if not g.word:
        return (("seed",),)
    return (("atom_seed", g.word[0]),) + tuple(("rmul", atom) for atom in g.word[1:])


def _extraction_chain(c: GroupElement, sigma: SigmaPair) -> Witness | None:
    """The first witness outside sigma from the parabolic on each side, then
    from the stabilizer of the first first-component line c stabilizes.  A
    step whose preconditions c misses (DomainError) yields nothing."""
    lam1 = next((lam for lam in c.rep.wm.lambda1 if in_parabolic(c, lam)), None)
    for extract, args, applies in (
        (extract_from_parabolic, (c, sigma.plus, +1), in_parabolic(c)),
        (extract_from_parabolic, (c, sigma.minus, -1), in_opposite_parabolic(c)),
        (extract_from_weight_stabilizer, (c, lam1, sigma), lam1 is not None),
    ):
        with suppress(DomainError):
            got = extract(*args) if applies else None
            if isinstance(got, Witness):
                return got
    return None


def level_certificate(
    rep: Representation,
    gen_atoms: list[Atom],
    extra: list[GroupElement],
    target: SigmaPair,
    budget: int = 400,
) -> LevelCertificate:
    """Witness the level of H = <E(Delta), gen_atoms, extra> (extraction uses
    the subsystem's root elements) up to the fixpoint where every generator
    normalizes the elementary group E(lower) of the witnessed level.
    ``gen_atoms`` are generators beyond E(Delta), which H contains anyway;
    the CLI passes none.

    Witnesses start from the ``"x"`` atoms on orbit roots.  Extraction then
    runs on a worklist that starts with the generators outside the normalizer
    (``generators_in_normalizer``); an element that yields no witness adds
    its conjugates g X g^-1 and commutators [g, X] for each root element X
    of E(lower) that it moves out of the congruence conditions.  A witness
    raises the level and restarts the worklist.  Each examined element costs
    one unit of ``budget``.  Every witness replays (``_reseat``) from its
    generator's word, or from the generator when it has none.
    """
    sides = _orbit_sides(rep.case)
    witnesses: list[Witness] = []
    lb = {+1: Ideal.zero(rep.ring), -1: Ideal.zero(rep.ring)}  # the witnessed level by side

    def note(w: Witness, start: GroupElement | None):
        witnesses.append(_reseat(rep, w, start))
        lb[w.side] = lb[w.side] + Ideal.from_elems(rep.ring, [w.value])

    single = [e.word[0] for e in extra if e.word is not None and len(e.word) == 1]
    for kind, root, value in list(gen_atoms) + single:
        side = sides.get(root)
        if kind == "x" and side and value not in lb[side]:
            note(Witness(side, root, value, (("atom_seed", (kind, root, value)),)), None)

    level = stop = None
    while stop is None:
        lower = SigmaPair(lb[+1], lb[-1])
        if lower != level:
            # restart at the new level; the atoms are tested once no extra fails
            level = lower
            failing = generators_in_normalizer(rep, [], extra, lower)
            failing = failing or generators_in_normalizer(rep, gen_atoms, [], lower)
            work = deque((g, _word_trace(g), g, None) for g in failing)  # (h, its ops, generator, next op)
            level_atoms = [("x", root, value) for root, value in _family_atoms(rep, lower)]
        if not failing:
            stop = "closed"
        elif not work:
            stop = "unresolved"
        elif budget <= 0:
            stop = "budget"
        else:
            budget -= 1
            h, trace, start, op = work.popleft()
            if op is not None:
                h, trace = _TRACE_OPS[op[0]].apply(rep, h, op[1]), trace + (op,)
            got = _extraction_chain(h, lower)
            if got is not None:
                note(replace(got, trace=trace + got.trace[1:]), start)
                continue
            mask = _top_line_mask(h, [atom[1:] for atom in level_atoms], lower)
            escapes = [atom for atom, inside in zip(level_atoms, mask) if not inside]
            work.extend((h, trace, start, (kind, atom)) for kind in ("conj_atom", "commute") for atom in escapes)
    return LevelCertificate(witnesses=witnesses, lower=lower, target=target, matched=lower == target, stop=stop)


def _reseat(rep: Representation, w: Witness, start: GroupElement | None) -> Witness:
    """Check by one replay, from ``start`` where the trace begins with
    ``seed``, that a witness's trace builds the claimed root element."""
    if not replay_trace(rep, w.trace, start) == rep.x(w.root, w.value):
        raise InternalConsistencyError("witness trace does not replay to the claimed element")
    return w


def level_reduction_check(
    rep: Representation,
    gen_atoms: list[Atom],
    extra: list[GroupElement],
    sigma: SigmaPair,
    by: Ideal,
    budget: int = 400,
) -> bool:
    """Witness values reduce to generators of the reduced level, and the
    generators reduced mod ``by`` normalize the reduced level's elementary
    group."""
    cert = level_certificate(rep, gen_atoms, extra, sigma, budget=budget)
    if not cert.matched:
        return False
    reduced = sigma.reduce(by)
    qspec = by.quotient_spec()
    for side, ideal in ((1, reduced.plus), (-1, reduced.minus)):
        values = [by.reduce_elem(w.value) for w in cert.witnesses if w.side == side]
        if Ideal.from_elems(qspec, values) != ideal:
            return False
    return not generators_in_normalizer(
        get_representation(rep.wm, qspec),
        [(kind, root, by.reduce_elem(value)) for kind, root, value in gen_atoms],
        [rep.reduce(e, by) for e in extra],
        reduced,
    )


def parse_sigma(spec: RingSpec, text: str) -> SigmaPair:
    """Parse a level as ``SigmaPair.describe`` writes it, such as ``(2),(0)``,
    ``R,((0, 1))`` or ``((2, 0)),(1)``: two ideals split at the one comma
    outside parentheses, each ``R`` or as ``Ideal.parse`` reads it."""
    depth, commas = 0, []
    for i, ch in enumerate(text):
        depth += (ch == "(") - (ch == ")")
        if ch == "," and depth == 0:
            commas.append(i)
    if len(commas) != 1:
        raise DomainError("level must have exactly two components")
    cut = commas[0]
    ideals = [text[:cut].strip(), text[cut + 1 :].strip()]
    return SigmaPair(*(Ideal.unit(spec) if t in ("R", "r") else Ideal.parse(spec, t) for t in ideals))
