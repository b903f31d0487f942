"""Exact matrices for the group action on the basic minuscule module.

A root element acts on the weight basis as

    x_alpha(xi) v^lam = v^lam + c * xi * v^(lam+alpha)      (lam+alpha a weight)

with structure constants c in {+1, -1}.  A crystal basis is chosen: c = +1 for
every simple root and its negative.  The pattern of a non-simple root is the
conjugate of a simple pattern by a monomial Weyl matrix, one simple reflection
at a time, each read off the simple root's w move (``weyl_monomial``); this
pins one concrete sign table whose correctness is checked by the relation
suite rather than against any published table.

A word's atoms are its factors (kind, root, value): x_alpha(v), the Weyl
element w_alpha(v) = x_alpha(v) x_-alpha(-v^-1) x_alpha(v) and the torus
element h_alpha(v) = w_alpha(v) w_alpha(-1), v a unit for w and h.  Each
factor is one line move (``RepTables.move``): x adds multiples of the source
lines to the target lines, w swaps the two line sets with scalars, and h
scales them.

A ``GroupElement`` holds its matrix and exact inverse as lazy nodes, each
computed on first read.  An element built from a word keeps the word's
factors and inverse factors as a chain, and while its matrix is unread (an
unread chain) its matrix is the identity moved by the factors and a row or
column is a basis vector moved by them.  A product of two unread chains is
the word of the joined chain (at most 32 factors), reduced by two relations
of root elements (``_reduced``); an empty chain is the identity.  An unread
chain against anything else moves the lines of a copy of the other matrix
(the shorter of two unread chains moves); any other product multiplies the
matrices.  A root element has X_alpha^2 = 0, so the inverse of a conjugate C
of one is 2e - C (``GroupElement.conjugate``).

A second-type module carries the invariant form H of
``forms.bilinear_form_signs``, so an element g that preserves it has
g^-1 = adj(g) = H^-1 g^T H, a signed transpose read by one gather
(``Representation.adjoint``).  Elements track whether they are known to
preserve H, and the inverse of a word or product of such elements is the
adjoint of its matrix: no inverse factors replay.  ``from_matrix`` inverts
at once, since that is its invertibility check: over a finite ring of a
second-type case, one product confirms the adjoint as the inverse; else,
and always over Z, ``RMat.inv`` does.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .errors import DomainError, InternalConsistencyError, NonUnitError
from .matrices import LineMove, RMat, RVec, check_exact, checked_inverse, mat_col, mat_row, signed_gather
from .rings import Ideal, RingElem, RingSpec
from .rng import SplitMix64
from .roots import Root, height
from .weights import Weight, WeightModule, build_weights, shift_table

Atom = tuple[str, Root, RingElem]  # kinds: "x", "w", "h"


@dataclass(frozen=True, eq=False)
class RepTables:
    """Ring-independent action data: the root patterns, whose signs are the
    structure constants, and, built on first use, their dense rows and the
    line move of each word factor kind and root."""

    wm: WeightModule
    patterns: dict  # root -> (srcs, dsts, signs) int arrays, signs int8, srcs ascending
    moves: dict = field(default_factory=dict, init=False, repr=False)  # (kind, root) -> LineMove, per copy

    def move(self, kind: str, alpha: Root) -> LineMove:
        """The ``LineMove`` of the factor kind ("x", "w" or "h") at the root.

        With S, D and c the root's sources, targets and signs, and c' the
        sign of the same pair in the pattern of -alpha, on rows:

        * x_alpha(v): rows D += c v rows S (the pattern itself);
        * w_alpha(v): rows D <- c v rows S and rows S <- -c' v^-1 rows D;
        * h_alpha(v): rows S <- v^-1 rows S and rows D <- v rows D.

        The w and h moves are the products x_alpha(v) x_-alpha(-v^-1)
        x_alpha(v) and w_alpha(v) w_alpha(-1) only when the pattern of -alpha
        is the transpose of alpha's with c c' = 1 on every pair, and the x
        move needs no line twice in S and D (so X_alpha^2 = 0); the build
        checks both and raises ``InternalConsistencyError`` otherwise."""
        key = (kind, alpha)
        if key not in self.moves:
            self.moves[key] = _line_move(self.patterns, kind, alpha)
        return self.moves[key]

    @cached_property
    def dense(self) -> tuple[np.ndarray, np.ndarray]:
        """Every root's pattern as (dst, sign) rows over n + 1 slots, in the
        order of Phi, sign int8.  An unshifted weight and the sentinel slot n
        map to n with sign 0, so composing two patterns is one indexing
        step: d2[d1], s1 * s2[d1].  Built from ``patterns``, per copy."""
        phi, n = self.wm.case.phi, self.wm.dim
        dst = np.full((len(phi), n + 1), n, dtype=np.intp)
        sign = np.zeros((len(phi), n + 1), dtype=np.int8)
        for k, root in enumerate(phi):
            srcs, dsts, signs = self.patterns[root]
            dst[k, srcs], sign[k, srcs] = dsts, signs
        return dst, sign

    @cached_property
    def adjoint(self) -> tuple[np.ndarray, np.ndarray]:
        """The adjoint g -> H^-1 g^T H of the invariant form H of a
        second-type module, which is g^-1 for every g that preserves H, as
        the (flat gather index, signs) of ``signed_gather``:
        adj(g)[a, b] = s_a s_b g[-b, -a], with s_a the sign of
        ``forms.bilinear_form_signs`` at -a, which raises
        ``UnsupportedCaseError`` for a first-type module."""
        from .forms import bilinear_form_signs  # forms imports this module

        wm = self.wm
        eps = bilinear_form_signs(wm)
        neg = np.array([wm.idx(wm.minus(lam)) for lam in wm.weights])
        s = np.array([eps[wm.weights[j]] for j in neg], dtype=np.int8)
        return (neg[None, :] * wm.dim + neg[:, None]).ravel(), np.outer(s, s).ravel()


def _line_move(patterns: dict, kind: str, alpha: Root) -> LineMove:
    srcs, dsts, signs = patterns[alpha]
    neg_srcs, neg_dsts, neg_signs = patterns[tuple(-x for x in alpha)]
    order = np.argsort(dsts)
    if not (
        np.array_equal(neg_srcs, dsts[order])
        and np.array_equal(neg_dsts, srcs[order])
        and np.array_equal(neg_signs * signs[order], np.ones_like(neg_signs))
    ):
        raise InternalConsistencyError(f"the pattern of -{alpha} is not the signed transpose of {alpha}'s")
    if kind == "x":
        if np.bincount(np.concatenate([srcs, dsts])).max() > 1:
            raise InternalConsistencyError(f"the pattern of {alpha} moves a source line or one line twice")
        return LineMove(srcs, dsts, signs)
    lines = np.concatenate([srcs, dsts])  # S, then D
    zeros, ones = np.zeros_like(signs), np.ones_like(signs)
    if kind == "w":
        # targets D, then S, from the sources S, then D; c' = c on every pair
        swapped = np.concatenate([dsts, srcs])
        return LineMove(lines, swapped, np.concatenate([signs, zeros]), np.concatenate([zeros, -signs]), add=False)
    if kind == "h":
        return LineMove(lines, lines, np.concatenate([zeros, ones]), np.concatenate([ones, zeros]), add=False)
    raise DomainError(f"unknown atom kind {kind!r}")


def weyl_monomial(patterns: dict, n: int, alpha: Root) -> tuple[np.ndarray, np.ndarray]:
    """w_alpha(1) = x_alpha(1) x_(-alpha)(-1) x_alpha(1) as (perm, signs),
    read off the w move (``_line_move``): column j holds signs[j] in row
    perm[j].

    On each (source, target) pair of alpha's pattern the three factors act
    as a 2 x 2 block, monomial exactly when c c' = 1, which the move build
    checks.  The blocks are independent, so the product is the move, when no
    line is in two pairs, checked here.  Either check raises
    ``InternalConsistencyError``.
    """
    move = _line_move(patterns, "w", alpha)
    if np.bincount(move.sources, minlength=n).max() > 1:
        raise InternalConsistencyError(f"Weyl element of {alpha} is not monomial")
    perm, sgn = np.arange(n), np.ones(n, dtype=np.int8)
    perm[move.sources], sgn[move.sources] = move.targets, move.signs + move.inv_signs
    return perm, sgn


@lru_cache(maxsize=None)
def rep_tables(wm: WeightModule) -> RepTables:
    case = wm.case
    n = wm.dim
    shifts = shift_table(wm)
    pat: dict = {}
    for alpha in case.simple_roots:
        for root in (alpha, tuple(-x for x in alpha)):
            srcs, dsts = shifts[root]
            pat[root] = (srcs, dsts, np.ones(len(srcs), dtype=np.int8))

    # monomial matrices of the simple w_i(1)
    weyl_perm = {i: weyl_monomial(pat, n, alpha) for i, alpha in enumerate(case.simple_roots)}

    def conj(arrays, wp) -> tuple:
        perm, sgn = wp
        srcs, dsts, signs = arrays
        order = np.argsort(perm[srcs])
        srcs, dsts, signs = srcs[order], dsts[order], signs[order]
        return perm[srcs], perm[dsts], sgn[srcs] * sgn[dsts] * signs

    positives = [r for r in case.phi if height(r) > 0]
    positives.sort(key=height)
    for alpha in positives:
        if alpha in pat:
            continue
        for i, simple in enumerate(case.simple_roots):
            beta = case.reflect(alpha, simple)  # alpha - simple when they pair to 1
            if case.pairing(alpha, simple) == 1 and beta in pat:
                break
        else:
            raise InternalConsistencyError(f"no descent for root {alpha}")
        neg_alpha = tuple(-x for x in alpha)
        neg_beta = tuple(-x for x in beta)
        pat[alpha] = conj(pat[beta], weyl_perm[i])
        pat[neg_alpha] = conj(pat[neg_beta], weyl_perm[i])

    for root, (srcs, dsts, c) in pat.items():
        want_srcs, want_dsts = shifts[root]
        if not np.array_equal(srcs, want_srcs):
            raise InternalConsistencyError(f"pattern support mismatch for {root}")
        if (np.abs(c) != 1).any():
            raise InternalConsistencyError(f"structure constant {c[np.abs(c) != 1][0]} for {root}")
        if not np.array_equal(dsts, want_dsts):
            raise InternalConsistencyError(f"pattern target mismatch for {root}")

    return RepTables(wm=wm, patterns=pat)


class _Lazy:
    """A value computed on first read from the values of other lazy nodes.

    ``fn`` is None once the value is known.  Reading walks the unresolved
    inputs with an explicit stack, so a chain of thousands of products
    resolves without recursion.  A resolved node drops ``fn`` and its inputs,
    so it keeps alive only its own value.
    """

    __slots__ = ("value", "fn", "args")

    def __init__(self, value=None, fn=None, args=()):
        self.value = value
        self.fn = fn
        self.args = args

    def get(self):
        if self.fn is None:
            return self.value
        stack = [self]
        while stack:
            node = stack[-1]
            if node.fn is None:
                stack.pop()
                continue
            pending = [a for a in node.args if a.fn is not None]
            if pending:
                stack += pending
                continue
            node.value = node.fn(*[a.value for a in node.args])
            node.fn = None
            node.args = ()
            stack.pop()
        return self.value


class GroupElement:
    """A module automorphism.

    ``mat`` and ``inv_mat`` (the exact inverse) are ``_Lazy`` nodes, each
    computed on first read and then kept; a deferred matrix holds the
    factors' matrices, and a deferred inverse their inverses or, for an
    element that preserves the form, its own matrix.  ``word`` is the atoms
    of an element built by ``element_from_word`` (``()`` for ``identity``),
    else None.

    ``_chain`` is private: (k, factors, inverse factors) for an element whose
    matrix is the product of k known factors, with the two factor tuples as
    ``_Lazy`` nodes (the inverse factors are computed on first read, once),
    else None.  A word has one, its inverse holds it swapped, and so has the
    joined product of two unread chains; only the word keeps ``word``.  A
    factor is an atom (kind, root, value), applied as one ``LineMove``.
    A joined chain keeps its factors reduced (``_reduced``), so a product
    that cancels, such as g * g^-1 of an x-word, has no factors and is the
    identity without a matrix.  While the matrix is unread
    (``_unread_chain``), products, ``column`` and ``row`` move lines by the
    chain instead of building the matrix.
    ``corner_table`` is filled by ``analysis.corner_ideals`` on its first
    read.

    ``_isometry`` is private: True only for an element known to preserve the
    invariant form of a second-type case, so that its inverse is its
    adjoint (``Representation.adjoint``), read so by words and products.
    It holds for the identity, words, and products, inverses and reductions
    of such elements, and for a ``from_matrix`` element whose adjoint passed
    as its inverse; it defaults to False, which is always safe.
    """

    __slots__ = ("rep", "_mat", "_inv", "word", "_chain", "_isometry", "corner_table")

    def __init__(self, rep: "Representation", mat, inv, word=None, chain=None, isometry=False):
        """``mat`` and ``inv`` are values or ``_Lazy`` nodes."""
        self.rep = rep
        self._mat = mat if isinstance(mat, _Lazy) else _Lazy(mat)
        self._inv = inv if isinstance(inv, _Lazy) else _Lazy(inv)
        self.word = word
        self._chain = chain
        self._isometry = isometry
        self.corner_table = None

    @property
    def mat(self) -> RMat:
        return self._mat.get()

    @property
    def inv_mat(self) -> RMat:
        return self._inv.get()

    def _unread_chain(self):
        """The chain while the matrix is unread, else None."""
        return self._chain if self._mat.fn is not None else None

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        """Two unread chains join into the word of their concatenated chain
        (up to ``_max_word_factors`` factors, counted before the chain is
        reduced by ``_reduced``), which copies and multiplies nothing; an
        unread chain against anything else moves the lines of a copy of the
        other matrix, and of two unread chains the shorter one moves; any
        other product multiplies the matrices.  The inverse is the
        adjoint when both preserve the form, else it is built the same way
        from the inverses."""
        rep = self.rep
        if other.rep is not rep:
            raise DomainError("product of elements of different representations")
        a, b = self._unread_chain(), other._unread_chain()
        if self._joins(other):
            fs = _Lazy(fn=lambda f, g: _reduced(rep.case, f + g), args=(a[1], b[1]))
            return rep._word_element(a[0] + b[0], fs, _Lazy(fn=_inverse_factors, args=(fs,)))
        if a is not None and (b is None or a[0] <= b[0]):
            (_, fs, inv_fs), base, left = a, other, True
        elif b is not None:
            (_, fs, inv_fs), base, left = b, self, False
        else:
            base = None
        if base is None:
            mat = _Lazy(fn=operator.mul, args=(self._mat, other._mat))
        else:
            mat = _Lazy(fn=lambda m, f: rep._apply_factors(m.copy(), f, left), args=(base._mat, fs))
        if self._isometry and other._isometry:
            return GroupElement(rep, mat, _Lazy(fn=rep.adjoint, args=(mat,)), isometry=True)
        if base is None:
            inv = _Lazy(fn=operator.mul, args=(other._inv, self._inv))
        else:
            inv = _Lazy(fn=lambda m, f: rep._apply_factors(m.copy(), f, not left), args=(base._inv, inv_fs))
        return GroupElement(rep, mat, inv)

    def _joins(self, other: "GroupElement") -> bool:
        """Both are unread chains, and the concatenated chain has at most
        ``_max_word_factors`` factors."""
        a, b = self._unread_chain(), other._unread_chain()
        return a is not None and b is not None and a[0] + b[0] <= self.rep._max_word_factors

    def inverse(self) -> "GroupElement":
        chain = self._chain
        swapped = None if chain is None else (chain[0], chain[2], chain[1])
        return GroupElement(self.rep, self._inv, self._mat, chain=swapped, isometry=self._isometry)

    def conjugate(self, by: "GroupElement") -> "GroupElement":
        """C = by * self * by^-1.  When self is one root element x_alpha(v),
        X_alpha^2 = 0 on the minuscule module, so x_alpha(v)^-1 = 2e - x_alpha(v)
        and C^-1 = 2e - C, read off C's matrix with no second product,
        unless C is a joined chain or preserves the form, whose inverses
        cost no product either."""
        c, word = by * self * by.inverse(), self.word
        if c._chain is not None or c._isometry or word is None or len(word) != 1 or word[0][0] != "x":
            return c
        return GroupElement(self.rep, c._mat, _Lazy(fn=lambda m: self.rep._two_e - m, args=(c._mat,)))

    def commutator(self, other: "GroupElement") -> "GroupElement":
        """self * other * self^-1 * other^-1, as other.conjugate(self) *
        other^-1, so the inverse rule of ``conjugate`` applies."""
        return other.conjugate(self) * other.inverse()

    def __eq__(self, other) -> bool:
        """Equal matrices.  Two unread words compare as the one word
        self * other^-1, which is the identity exactly when they are equal:
        no matrix when it reduces to no factors, else one identity with its
        moves instead of two."""
        if not isinstance(other, GroupElement):
            return False
        if other.rep is self.rep:
            inverse = other.inverse()
            if self._joins(inverse):
                return (self * inverse).is_identity()
        return self.mat == other.mat

    def is_identity(self) -> bool:
        """True for an unread chain with no factors, with no matrix built;
        else read from the matrix."""
        chain = self._unread_chain()
        return (chain is not None and not chain[1].get()) or self.mat.is_identity()

    def entry(self, lam: Weight, mu: Weight) -> RingElem:
        return self.mat.entry(self.rep.wm.idx(lam), self.rep.wm.idx(mu))

    def inv_entry(self, lam: Weight, mu: Weight) -> RingElem:
        return self.inv_mat.entry(self.rep.wm.idx(lam), self.rep.wm.idx(mu))

    def column(self, mu: Weight) -> RVec:
        """Column mu; with an unread matrix and a chain, the factors act on
        the basis vector by row moves, last factor first, and no matrix is
        built."""
        return self._row_or_column(self.rep.wm.idx(mu), True)

    def row(self, lam: Weight) -> RVec:
        """Row lam; as ``column``, by column moves, first factor first."""
        return self._row_or_column(self.rep.wm.idx(lam), False)

    def _row_or_column(self, i: int, column: bool) -> RVec:
        chain = self._unread_chain()
        if chain is None:
            return (mat_col if column else mat_row)(self.mat, i)
        rep = self.rep
        return rep._apply_factors(RVec.basis(rep.ring, rep.n, i), chain[1].get(), column)

    def check(self) -> None:
        if not (self.mat * self.inv_mat).is_identity():
            raise InternalConsistencyError("stored inverse does not invert the matrix")


class Representation:
    """The matrix group over a fixed ring, with its generator constructors."""

    def __init__(self, wm: WeightModule, ring: RingSpec):
        check_exact(ring, wm.dim)
        self.wm = wm
        self.case = wm.case
        self.ring = ring
        self.tables = rep_tables(wm)
        self.n = wm.dim
        # words preserve the invariant form, which only second-type cases have
        self._has_form = wm.kind == "second"
        # A product of two unread chains concatenates them while the result
        # has at most this many factors.  Its matrix is one identity plus a
        # line move per factor, and no copy or matrix product, but an operand
        # used twice (h in h a h^-1) is replayed once per use, so the chains
        # of repeated conjugations would double at every step without a cap.
        self._max_word_factors = 32

    @cached_property
    def _two_e(self) -> RMat:
        """2e; shared, never mutate it."""
        return RMat.identity(self.ring, self.n) + RMat.identity(self.ring, self.n)

    # -- scalars ---------------------------------------------------------------

    def scalar(self, x) -> RingElem:
        if isinstance(x, RingElem):
            if x.spec != self.ring:
                raise DomainError("scalar over a different ring")
            return x
        return self.ring.el(x)

    def sign(self, lam: Weight, alpha: Root) -> int:
        """The structure constant of x_alpha on the lam basis vector."""
        c = int(self.tables.dense[1][self.case.idx(alpha), self.wm.idx(lam)])
        if not c:
            raise DomainError(f"root {alpha} does not shift the weight {lam}")
        return c

    def pattern(self, alpha: Root):
        try:
            return self.tables.patterns[alpha]
        except KeyError:
            raise DomainError(f"{alpha} is not a root of {self.case.describe()}") from None

    # -- element constructors ----------------------------------------------------

    def identity(self) -> GroupElement:
        ident = RMat.identity(self.ring, self.n)
        chain = (0, _Lazy(()), _Lazy(()))
        return GroupElement(self, ident, ident.copy(), word=(), chain=chain, isometry=self._has_form)

    def _factors(self, atoms) -> tuple:
        """The atoms as factors (kind, root, value) over this ring, with
        their line moves built.  A factor is refused now, not on the first
        read: a non-root or an unknown kind raises ``DomainError``, and a w or
        h parameter that is not a unit ``NonUnitError``."""
        out = []
        for kind, root, value in atoms:
            value = self.scalar(value)
            self.pattern(root)
            self.tables.move(kind, root)
            if kind != "x" and not value.is_unit():
                name = "Weyl" if kind == "w" else "torus"
                raise NonUnitError(f"{name} element needs a unit parameter")
            out.append((kind, root, value))
        return tuple(out)

    def element_from_word(self, atoms) -> GroupElement:
        """The product of the atoms, built on first read (``_word_element``);
        the inverse factors are computed once, when first needed."""
        factors = self._factors(atoms)
        fs = _Lazy(factors)
        return self._word_element(len(factors), fs, _Lazy(fn=_inverse_factors, args=(fs,)), word=factors)

    def _word_element(self, k: int, fs: _Lazy, inv_fs: _Lazy, word=None) -> GroupElement:
        """The element of the chain of k validated factors, with nothing
        built: its matrix replays the factors on the identity when first
        read, and its inverse is the adjoint of that matrix in a second-type
        case, else the inverse factors replayed the same way."""

        def build(f):
            return self._apply_factors(RMat.identity(self.ring, self.n), f, True)

        mat = _Lazy(fn=build, args=(fs,))
        inv = _Lazy(fn=self.adjoint, args=(mat,)) if self._has_form else _Lazy(fn=build, args=(inv_fs,))
        return GroupElement(self, mat, inv, word=word, chain=(k, fs, inv_fs), isometry=self._has_form)

    def _apply_factors(self, mat, factors: tuple, left: bool):
        """``mat`` (a matrix, or a vector) times the product g_1 ... g_k of
        the factors, in place, one line move per factor: g_1 ... g_k * mat by
        row moves, last factor first, when ``left``, else mat * g_1 ... g_k
        by column moves, first factor first."""
        move = self.tables.move
        if left:
            for kind, root, value in reversed(factors):
                mat.apply_x_left(move(kind, root), value)
        else:
            for kind, root, value in factors:
                mat.apply_x_right(move(kind, root), value)
        return mat

    def x(self, alpha: Root, xi) -> GroupElement:
        return self.element_from_word((("x", alpha, self.scalar(xi)),))

    def w(self, alpha: Root, eps) -> GroupElement:
        return self.element_from_word((("w", alpha, self.scalar(eps)),))

    def h(self, alpha: Root, eps) -> GroupElement:
        return self.element_from_word((("h", alpha, self.scalar(eps)),))

    def z(self, alpha: Root, xi, zeta) -> GroupElement:
        """x_alpha(zeta) x_(-alpha)(xi) x_alpha(-zeta)."""
        xi, zeta = self.scalar(xi), self.scalar(zeta)
        neg = tuple(-x for x in alpha)
        return self.element_from_word(
            (("x", alpha, zeta), ("x", neg, xi), ("x", alpha, -zeta))
        )

    def from_matrix(self, mat: RMat) -> GroupElement:
        """A matrix-only element, with its inverse computed at once, which
        checks that the matrix is invertible (``NonUnitError``).  Over a
        finite ring of a second-type case the inverse is the adjoint when one
        product confirms it, and the element then preserves the form; else,
        and always over Z, it comes from ``RMat.inv`` (elimination over
        F_p, then Newton steps)."""
        if mat.n != self.n or mat.spec != self.ring:
            raise DomainError("matrix does not match the representation")
        mat = mat.copy()
        if not (self._has_form and self.ring.is_finite):
            return GroupElement(self, mat, mat.inv())
        adjoint = self.adjoint(mat)
        inv = checked_inverse(mat, adjoint)
        return GroupElement(self, mat, inv, isometry=inv is adjoint)

    def adjoint(self, mat: RMat) -> RMat:
        """H^-1 mat^T H for the invariant form H, in one gather: the inverse
        of every matrix that preserves the form (second-type cases only)."""
        return signed_gather(mat, *self.tables.adjoint)

    # -- reduction --------------------------------------------------------------------

    def reduce(self, g: GroupElement, ideal: Ideal) -> GroupElement:
        """Image under the reduction homomorphism modulo the ideal."""
        if ideal.spec != self.ring:
            raise DomainError("ideal over a different ring")
        return GroupElement(
            get_representation(self.wm, ideal.quotient_spec()),
            _Lazy(fn=lambda m: m.reduce(ideal), args=(g._mat,)),
            _Lazy(fn=lambda m: m.reduce(ideal), args=(g._inv,)),
            isometry=g._isometry,
        )


def _reduced(case, factors: tuple) -> tuple:
    """The factors rewritten left to right by two relations that hold in the
    minuscule module, where X_alpha^2 = 0 and X_alpha X_beta = X_beta X_alpha
    when (alpha, beta) is 0 or 1: an x factor x_alpha(a) passes back over the
    x factors of such roots, and if it then meets x_alpha(b), the two merge
    into x_alpha(b + a), dropped when b + a = 0; else it stays in place.  A w
    or h factor, or an x factor of negative pairing, stops it.  Every case is
    simply laced, so pairing 2 is alpha itself."""
    index, pairings = case.index, case.pairings
    out = []
    for f in factors:
        kind, root, value = f
        p = len(out)
        if kind == "x":
            i = index[root]
            while p and out[p - 1][0] == "x" and 0 <= pairings[i, index[out[p - 1][1]]] <= 1:
                p -= 1
        if p and kind == "x" and out[p - 1][:2] == ("x", root):
            total = out[p - 1][2] + value
            if total.is_zero():
                del out[p - 1]
            else:
                out[p - 1] = ("x", root, total)
        else:
            out.append(f)
    return tuple(out)


def _inverse_factors(factors: tuple) -> tuple:
    """The factors of (g_1 ... g_k)^-1 = g_k^-1 ... g_1^-1, where
    x_alpha(v)^-1 = x_alpha(-v), w_alpha(v)^-1 = w_alpha(-v) and
    h_alpha(v)^-1 = h_alpha(v^-1)."""
    return tuple(
        (kind, root, value.inv() if kind == "h" else -value) for kind, root, value in reversed(factors)
    )


@lru_cache(maxsize=None)
def get_representation(wm: WeightModule, ring: RingSpec) -> Representation:
    return Representation(wm, ring)


def representation(tag: str, l: int | None, ring: RingSpec) -> Representation:
    from .roots import build_case

    return get_representation(build_weights(build_case(tag, l)), ring)


def sample_word_rng(rep: Representation, atoms: list[Atom], length: int, rng: SplitMix64) -> GroupElement:
    """Product of ``length`` atoms drawn from the pool by ``rng``."""
    if length == 0 or not atoms:
        return rep.identity()
    picked = tuple(rng.choice(atoms) for _ in range(length))
    return rep.element_from_word(picked)

