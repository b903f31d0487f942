"""Dense matrices and vectors over chain-ring products.

A matrix over a ring spec is a list of per-factor blocks with one layout: a
leading axis of coefficient slices, so a matrix block has shape (s, n, n) and
a vector block (s, n).  The layout of a factor is ``Factor.layout``, (s, c):

* Z/p^k         -- s = 1, coefficients mod c = p^k,
* F_p[t]/(t^k)  -- s = k, slice i holds the t^i coefficients mod c = p,
* Z             -- s = 1, an object array of exact Python integers, c = 0
  (never reduced).

One rule, ``_dtype(layout)``, gives every block its dtype: int8 under the
narrow bound (c - 1)(1 + 2 s (c - 1)) < 2^7 (Z/p^k up to Z/8, F_2[t]/(t^k)
for k < 64, F_3[t]/(t^k) for k < 16, F_5[t]/(t^k) for k <= 3), int64 above
it, object for Z.  Every block constructor reads it.

Every block operation is one code path over the layout, and every reduction
is ``rings._mod``, a bit mask for a power-of-two c.  A product is a truncated
convolution of slices: in float64 when (c - 1)^2 * n * s < 2^52, where each
output slice sums its terms exactly before one conversion and one reduction,
else in int64 with each term reduced.  Kernel temporaries live in a
per-thread workspace (``_workspace``), reused from call to call; a result is
the one fresh block and never aliases it.  An inverse (``RMat.inv``) is
Gauss-Jordan over the residue field F_p on the constant slices, then Newton
steps made of products, so it takes its float or int path from ``*``.

A word factor acts by a line move (``LineMove``), one call of the line kernel
``_update_lines``: on rows for a left action, on columns for a right one, on
the entries of a vector; all slices in one gather and one scatter, along the
line axis.  A root element adds to lines that are not its sources (the
module is minuscule); a Weyl or torus element assigns to lines that are also
sources, which the kernel reads first.

A predicate reads a fixed set of entries through a flat index into the
trailing axes, row * n + col for a matrix: one ``np.take`` per block, never a
boolean mask or a per-slice fancy index.  Each caller builds its indices once
and caches them.  Ideals and quotients follow the chain rule of ``rings``
through the layout, never the factor kind: an ideal test reads the ideal's
per-slice divisors (``Ideal.divisors``); a line's ideal is its number of
leading zero slices when s > 1, else its gcd with c (p^v for c = p^k); and a
quotient keeps, per factor of ``Factor.quotient``, the first s slices mod
that factor's c.

Exactness: blocks hold coefficients reduced into [0, c) (``set_entry``
reduces the residues it stores), so every int64 kernel is exact when
(c - 1)^2 * n < 2^63: a slice product sums n products of two coefficients,
a line move at most s + 1.  ``check_exact`` enforces the bound wherever
blocks are made, so a modulus above it raises ``DomainError`` instead of
wrapping around.  An int8 block is exact under the narrow bound: the widest
value a kernel computes in the block dtype is a line move's target, its old
coefficient plus s products of a source coefficient and a move coefficient
(up to 2(c - 1), for a Weyl or torus move's v and v^-1 terms).  Sums that can
pass it are made wider and reduced before they are narrowed: a product
slice in float64 goes through an int64 workspace; every narrow layout is
float-safe, so an integer matmul (an int8 ``@`` would wrap without a
warning) only sees int64 or object blocks.
"""

from __future__ import annotations

import math
import threading
from typing import NamedTuple

import numpy as np

from .errors import DomainError, NonUnitError, UnsupportedCaseError
from .rings import Ideal, RingElem, RingSpec, _mod

_FLOAT_SAFE = 2**52
_INT64_SAFE = 2**63
_INT8_SAFE = 2**7


def check_exact(spec: RingSpec, n: int) -> None:
    """Raise ``DomainError`` unless every kernel over the spec at dimension n
    is exact in int64."""
    for f in spec.factors:
        s, c = f.layout
        if c and (c - 1) ** 2 * max(n, s + 1) >= _INT64_SAFE:
            raise DomainError(
                f"coefficient modulus {c} is too large for exact int64 arithmetic "
                f"at dimension {n}: (c - 1)^2 * n must stay below 2^63"
            )


def _dtype(layout: tuple):
    """The dtype of every block over the layout (s, c): object for Z; int8
    when a line move's target, (c - 1) + s * 2(c - 1) * (c - 1), stays below
    2^7, which bounds every value a kernel computes in the block dtype; else
    int64, which ``check_exact`` bounds."""
    s, c = layout
    if not c:
        return object
    return np.int8 if (c - 1) * (1 + 2 * s * (c - 1)) < _INT8_SAFE else np.int64


def _zero_blocks(spec: RingSpec, n: int, shape: tuple) -> list:
    check_exact(spec, n)
    return [np.zeros((f.layout[0],) + shape, dtype=_dtype(f.layout)) for f in spec.factors]


def _float_ok(layout: tuple, n: int) -> bool:
    """A product of two (s, n, n) stacks over the layout (s, c) may run in
    float64: a slice sums at most s * n products of two coefficients below c,
    so it stays an exact float64 integer below 2^52."""
    s, c = layout
    return 0 < c and (c - 1) ** 2 * n * s < _FLOAT_SAFE


_scratch = threading.local()


def _workspace(role: str, shape: tuple, dtype=np.float64) -> np.ndarray:
    """A scratch array of the shape for one role of a kernel, owned by the
    calling thread: a view of a flat buffer that grows to the largest size
    asked for and is reused by every later call, so a kernel's temporaries
    are not fresh blocks.  Views are cached by shape and dtype, so a lookup
    is one dict read; a buffer that grows drops its views and every cached
    ``_product_space``, so none keeps an old buffer alive.  Its contents are
    undefined, and a kernel copies out of it, so no result is a view of it."""
    pool = _scratch.__dict__
    view = pool.get((role, shape, dtype))
    if view is None:
        size = math.prod(shape)
        buf = pool.get(role)
        if buf is None or buf.size < size or buf.dtype != dtype:
            for key in [k for k in pool if isinstance(k, tuple) and k[0] in (role, "product")]:
                del pool[key]
            buf = pool[role] = np.empty(size, dtype=dtype)
        view = pool[(role, shape, dtype)] = buf[:size].reshape(shape)
    return view


def _product_space(a_shape: tuple, b_shape: tuple) -> tuple:
    """The workspace of ``_convolve`` for its operand shapes, cached per
    shape pair so that a call makes one lookup: views of the float64 buffers
    "a" and "b" that the operands copy into, a's slices side by side and
    last first and b's stacked; the operand pair of each output slice t, the
    last t + 1 slices of a and the first t + 1 of b; and a float64 and an
    int64 view of one output slice."""
    pool = _scratch.__dict__
    key = ("product", a_shape, b_shape)
    space = pool.get(key)
    if space is None:
        s, r, k = a_shape
        fa, fb = _workspace("a", (r, s * k)), _workspace("b", (s * k,) + b_shape[2:])
        pairs = [(fa[:, (s - 1 - t) * k :], fb[: (t + 1) * k]) for t in range(s)]
        out = (r,) + b_shape[2:]
        a_in = fa.reshape(r, s, k)[:, ::-1].swapaxes(0, 1)
        space = pool[key] = (a_in, fb.reshape(b_shape), pairs, _workspace("acc", out), _workspace("wide", out, np.int64))
    return space


def _convolve(a: np.ndarray, b: np.ndarray, layout: tuple, use_float: bool) -> np.ndarray:
    """The truncated product of two slice stacks: slice t is the sum over
    i <= t of a[i] @ b[t - i], reduced mod c, in a fresh block of
    ``_dtype(layout)``.  In float64 the stacks convert once into the thread's
    workspace (``_product_space``), where each slice is one product, exact as
    it sums; it converts into an int64 workspace and is reduced there before
    it is narrowed into the result.  In int64 (never narrow blocks, whose
    layouts are all float-safe) each term is reduced before it is added,
    which ``check_exact`` keeps exact."""
    c = layout[1]
    out = np.empty(a.shape[:-1] + b.shape[2:], dtype=_dtype(layout))
    if use_float:
        a_in, b_in, pairs, acc, wide = _product_space(a.shape, b.shape)
        np.copyto(a_in, a)
        np.copyto(b_in, b)
        for t, (x, y) in enumerate(pairs):
            np.matmul(x, y, out=acc)
            np.copyto(wide, acc, casting="unsafe")
            out[t] = _mod(wide, c, inplace=True)
        return out
    for t in range(len(a)):
        acc = a[0] @ b[t]
        for i in range(1, t + 1):
            acc = _mod(acc, c) + _mod(a[i] @ b[t - i], c)
        out[t] = _mod(acc, c, inplace=True)
    return out


def _update_lines(blk: np.ndarray, c: int, targets, sources, coeffs, axis: int, add: bool) -> None:
    """The line kernel: line targets[i] of ``blk`` along ``axis`` (a row,
    a column, or a vector's entry) becomes coeffs * line sources[i], plus
    its old value when ``add`` (else it is assigned).  The product is a
    truncated convolution: slice t of a target gets coeffs[j][i] times slice
    t - j of its source, where ``coeffs`` holds one array per slice in the
    broadcast shape of ``_line_coeffs``, None for a slice zero on every line.

    All slices move at once: one ``take`` of the sources (and of the targets
    when ``add``), per slice j one whole-stack product coeffs[j] *
    sources[: s - j] added into targets[j:], one reduction and one scatter.
    Every source is read before a target is written, so an assignment may
    permute or scale lines in place (with ``add`` the sets are disjoint).
    An addition runs slice 0 last, scaling the source stack in place after
    the higher slices read it; an assignment starts from its slice-0 term."""
    s, src = len(blk), blk.take(sources, axis=axis)
    if add:
        acc, last = blk.take(targets, axis=axis), coeffs[0]
    else:
        acc, last = (None if coeffs[0] is None else coeffs[0] * src), None
    for j in range(s - 1, 0, -1):
        if coeffs[j] is not None:
            if acc is None:
                acc = np.zeros_like(src)
            acc[j:] += coeffs[j] * src[: s - j]
    if last is not None:
        src *= last
        acc += src
    blk[(slice(None),) * axis + (targets,)] = 0 if acc is None else _mod(acc, c, inplace=True)


def _line_coeffs(dtype, signs: np.ndarray, part, shape: tuple) -> list:
    """signs * v per slice of the residue v, built in the block dtype (exact
    integers over Z, where an int64 product with a large parameter would
    overflow), shaped (m on the line axis, 1 elsewhere) to broadcast against
    ``_update_lines``'s stacks; None for a zero slice."""
    signs = signs.reshape(shape)
    if isinstance(part, tuple):
        return [np.multiply(signs, v, dtype=dtype) if v else None for v in part]
    return [np.multiply(signs, part, dtype=dtype) if part else None]


class LineMove(NamedTuple):
    """The action of one word factor with parameter v on lines, for a left
    (row) action: line targets[i] becomes (its old value, when ``add``, plus)
    (signs[i] * v + inv_signs[i] * v^-1) times line sources[i].  A right
    (column) action is the same move with targets and sources swapped.  The
    move of x_alpha(v) is ``LineMove(srcs, dsts, signs)`` of its root
    pattern.  The signs are int8, the narrowest block dtype, so a move's
    coefficients are built in a block's dtype without a cast."""

    sources: np.ndarray
    targets: np.ndarray
    signs: np.ndarray
    inv_signs: np.ndarray | None = None
    add: bool = True


class _Blocks:
    """The per-factor blocks of a matrix or a vector.  Entry indices select
    over the trailing axes, every coefficient slice at once."""

    __slots__ = ("spec", "n", "blocks")

    def __init__(self, spec: RingSpec, n: int, blocks: list):
        self.spec = spec
        self.n = n
        self.blocks = blocks

    def copy(self):
        return type(self)(self.spec, self.n, [blk.copy() for blk in self.blocks])

    def __eq__(self, other) -> bool:
        if type(other) is not type(self) or self.spec != other.spec:
            return False
        return all(np.array_equal(a, b) for a, b in zip(self.blocks, other.blocks))

    def _box(self, index: tuple) -> RingElem:
        index = (slice(None),) + index
        return RingElem(
            self.spec,
            tuple(f.part(blk[index].tolist()) for f, blk in zip(self.spec.factors, self.blocks)),
        )

    def _set(self, index: tuple, x: RingElem) -> None:
        if x.spec != self.spec:
            raise DomainError("entry belongs to a different ring")
        index = (slice(None),) + index
        # the kernels assume coefficients in [0, c): reduce what a caller built
        for i, (blk, part) in enumerate(zip(self.blocks, x.parts)):
            blk[index] = self.spec._reduce_part(i, part)

    # -- masked predicates ---------------------------------------------------------
    # A predicate reads its entries through a flat index into the trailing
    # axes in row-major order (row * n + col for a matrix, the entry itself
    # for a vector), of any shape: one ``np.take`` per block, several times
    # faster than a boolean mask or a fancy index with a leading full slice.

    def _take(self, index) -> list:
        """Per block, its entries at the flat index, shaped (s,) + index.shape."""
        return [blk.reshape(len(blk), -1).take(index, axis=1) for blk in self.blocks]

    def nonzero_at(self, index=None) -> bool:
        """Some entry at the flat index is nonzero; with no index, some entry."""
        return any(np.count_nonzero(vals) for vals in (self.blocks if index is None else self._take(index)))

    def _outside(self, ideal: Ideal, index):
        """Per entry at the flat index, whether it lies outside the ideal;
        None when the ideal holds every entry."""
        out = None
        for vals, ds in zip(self._take(index), ideal.divisors):
            for sl, d in zip(vals, ds):
                if d != 1:
                    hit = _mod(sl, d) != 0
                    out = hit if out is None else out | hit
        return out

    def in_ideal_at(self, ideal: Ideal, index) -> bool:
        """Every entry at the flat index lies in the ideal."""
        out = self._outside(ideal, index)
        return out is None or not np.count_nonzero(out)

    def in_ideal_mask(self, ideal: Ideal, index) -> np.ndarray:
        """For a flat index whose last axis runs over lines, one verdict per
        line: every entry of the line lies in the ideal."""
        out = self._outside(ideal, index)
        if out is None:
            return np.ones(np.shape(index)[-1], dtype=bool)
        return ~out.reshape(-1, out.shape[-1]).any(axis=0)

    def line_ideals(self, index) -> list[Ideal]:
        """For a flat index whose last axis runs over lines, the ideal
        generated by each line's entries: per factor the least valuation,
        or the gcd over the integers.  Equal ideals are one shared object."""
        parts = []
        for f, taken in zip(self.spec.factors, self._take(index)):
            s, c = f.layout
            vals = taken.reshape(s, -1, taken.shape[-1])
            if s > 1:
                # slices mod p: the valuation is the number of leading slices that vanish
                part = np.logical_and.accumulate(~vals.any(axis=1)).sum(axis=0)
            else:
                # each line's gcd with c (c <= 8 in an int8 block); for c = p^k
                # it is p^v, v the least valuation
                part = np.gcd.reduce(vals[0], axis=0, initial=c)
                if c:
                    part = np.searchsorted(f.p ** np.arange(f.k + 1), part)
            parts.append(part.tolist())
        rows = list(zip(*parts))
        ideals = {t: Ideal(self.spec, t) for t in set(rows)}
        return [ideals[t] for t in rows]

    def _apply_move(self, move: LineMove, xi: RingElem, left: bool) -> None:
        """The word factor's line move: on rows, or for a vector on the
        entries of a column, when ``left``; else on columns, or for a vector
        on the entries of a row, with sources and targets swapped."""
        srcs, dsts, signs, inv_signs, add = move
        if not left:
            srcs, dsts = dsts, srcs
        inv_parts = (None,) * len(xi.parts) if inv_signs is None else xi.inv().parts
        for f, blk, part, inv_part in zip(self.spec.factors, self.blocks, xi.parts, inv_parts):
            axis = 1 if left else blk.ndim - 1
            shape = (1,) * axis + (-1,) + (1,) * (blk.ndim - 1 - axis)
            coeffs = _line_coeffs(blk.dtype, signs, part, shape)
            if inv_signs is not None:
                more = _line_coeffs(blk.dtype, inv_signs, inv_part, shape)
                coeffs = [b if a is None else a if b is None else a + b for a, b in zip(coeffs, more)]
            _update_lines(blk, f.layout[1], dsts, srcs, coeffs, axis, add)

    def signed_copies_at(self, index, ref) -> np.ndarray:
        """For each entry at the flat index, whether it equals plus or minus
        the entry at position ``ref`` of it, with one sign over all factors."""
        plus = minus = True
        for f, vals in zip(self.spec.factors, self._take(index)):
            refs = vals.take(ref, axis=1)
            plus = plus & (vals == refs).all(axis=0)
            minus = minus & (vals == _mod(-refs, f.layout[1])).all(axis=0)
        return plus | minus


class RMat(_Blocks):
    """Square matrix over a ring spec."""

    __slots__ = ()

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zeros(cls, spec: RingSpec, n: int) -> "RMat":
        return cls(spec, n, _zero_blocks(spec, n, (n, n)))

    @classmethod
    def identity(cls, spec: RingSpec, n: int) -> "RMat":
        out = cls.zeros(spec, n)
        for f, blk in zip(spec.factors, out.blocks):
            np.fill_diagonal(blk[0], _mod(1, f.layout[1]))
        return out

    # -- ring of entries --------------------------------------------------------

    def entry(self, i: int, j: int) -> RingElem:
        return self._box((i, j))

    def set_entry(self, i: int, j: int, x: RingElem) -> None:
        self._set((i, j), x)

    # -- arithmetic ----------------------------------------------------------------

    def __mul__(self, other: "RMat") -> "RMat":
        if self.spec != other.spec:
            raise DomainError("matrix product over different rings")
        n = self.n
        blocks = []
        for f, a, b in zip(self.spec.factors, self.blocks, other.blocks):
            blocks.append(_convolve(a, b, f.layout, _float_ok(f.layout, n)))
        return RMat(self.spec, n, blocks)

    def __add__(self, other: "RMat") -> "RMat":
        return self._entrywise(np.add, other)

    def __sub__(self, other: "RMat") -> "RMat":
        return self._entrywise(np.subtract, other)

    def _entrywise(self, op, other: "RMat") -> "RMat":
        if self.spec != other.spec:
            raise DomainError("matrix sum over different rings")
        pairs = zip(self.spec.factors, self.blocks, other.blocks)
        # a + b and a - b lie in (-c, 2c), inside the narrow bound
        return RMat(self.spec, self.n, [_mod(op(a, b), f.layout[1], inplace=True) for f, a, b in pairs])

    def is_scalar(self, k: int = 1) -> bool:
        """The matrix is k e: the constant slice's diagonal holds k and no
        other coefficient is nonzero; no k e is built to compare with."""
        for f, blk in zip(self.spec.factors, self.blocks):
            diag = np.diagonal(blk[0])
            if not (diag == _mod(k, f.layout[1])).all() or np.count_nonzero(blk) != np.count_nonzero(diag):
                return False
        return True

    is_identity = is_scalar  # k = 1

    def is_zero_at(self, i: int, j: int) -> bool:
        return not self.nonzero_at(i * self.n + j)

    def transpose(self) -> "RMat":
        return RMat(self.spec, self.n, [blk.swapaxes(1, 2).copy() for blk in self.blocks])

    # -- line moves ------------------------------------------------------------

    def apply_x_right(self, move, xi: RingElem) -> None:
        """self <- self * g (column moves) for the word factor g with
        parameter xi whose ``LineMove`` is given."""
        self._apply_move(move, xi, False)

    def apply_x_left(self, move, xi: RingElem) -> None:
        """self <- g * self (row moves), as ``apply_x_right``."""
        self._apply_move(move, xi, True)

    # -- quotients -----------------------------------------------------------------

    def reduce(self, ideal: Ideal) -> "RMat":
        """Entrywise image in the quotient by the ideal."""
        if ideal.spec != self.spec:
            raise DomainError("ideal over a different ring")
        qspec = ideal.quotient_spec()
        check_exact(qspec, self.n)
        blocks = []
        for f, j, blk in zip(self.spec.factors, ideal.parts, self.blocks):
            for q in f.quotient(j):
                blocks.append(np.array(_mod(blk[: q.layout[0]], q.layout[1]), dtype=_dtype(q.layout)))
        return RMat(qspec, self.n, blocks)

    # -- inversion -------------------------------------------------------------------

    def inv(self) -> "RMat":
        """The inverse by one rule over every chain factor: Gauss-Jordan over
        the residue field F_p on the constant slice (``_inv_mod_p``), which
        decides invertibility, then Newton steps x <- x + x (e - a x) as
        products.  If a x = e mod m^j, m = (p) or (t), and E = e - a x, then
        a (x + x E) = e - E^2 = e mod m^2j, so (k - 1).bit_length() steps
        reach p^k (Z/p^k) or t^k (F_p[t]/(t^k)).  A zero-ring factor's block stays zero.  Over
        the integers only the identity shortcut works, since general integer
        inverses are not representable."""
        if not self.spec.is_finite:
            if not self.is_identity():
                raise UnsupportedCaseError("matrix inversion over the integers is not supported")
            return self.copy()
        x = RMat.zeros(self.spec, self.n)
        for f, blk, out in zip(self.spec.factors, self.blocks, x.blocks):
            if f.layout[1] > 1:
                _inv_mod_p(blk[0], f.p, out[0])
        e = RMat.identity(self.spec, self.n)
        for _ in range((max(f.k for f in self.spec.factors) - 1).bit_length()):
            x = x + x * (e - self * x)
        return x

    # -- serialization ------------------------------------------------------------------

    def to_json(self) -> list:
        return [[self.entry(i, j).to_json() for j in range(self.n)] for i in range(self.n)]

    @staticmethod
    def from_json(spec: RingSpec, rows: list) -> "RMat":
        n = len(rows)
        out = RMat.zeros(spec, n)
        for i, row in enumerate(rows):
            if len(row) != n:
                raise DomainError("matrix rows must be square")
            for j, data in enumerate(row):
                out.set_entry(i, j, RingElem.from_json(spec, data))
        return out


def checked_inverse(mat: RMat, candidate: RMat) -> RMat:
    """The inverse of ``mat``: ``candidate`` when one product shows that
    mat * candidate = e, else ``mat.inv()``, which raises ``NonUnitError``
    for a singular matrix."""
    return candidate if (mat * candidate).is_identity() else mat.inv()


def signed_gather(mat: RMat, index: np.ndarray, signs: np.ndarray) -> RMat:
    """The matrix whose entry k in row-major order is signs[k] times entry
    index[k] of ``mat``: per block one ``np.take`` over the flattened
    entries (several times faster than a fancy index), one product with the
    signs and one reduction."""
    blocks = []
    for f, blk in zip(mat.spec.factors, mat.blocks):
        out = np.take(blk.reshape(len(blk), -1), index, axis=1)
        out *= signs
        blocks.append(_mod(out, f.layout[1], inplace=True).reshape(blk.shape))
    return RMat(mat.spec, mat.n, blocks)


def _inv_mod_p(a: np.ndarray, p: int, out: np.ndarray) -> None:
    """Gauss-Jordan inverse over F_p of a mod p, written into ``out``, on the
    augmented rows [a | e] in the thread's workspace, in the dtype of F_p's
    blocks, which holds an update's values (|v| < p^2).  The pivot of a
    column is its first nonzero entry on or below the diagonal; every other
    row with a nonzero entry in the pivot column is cleared in one
    outer-product update.  Columns left of the pivot are already those of
    e, zero in the pivot row, so an update reads and writes only the
    columns from it on."""
    n = len(a)
    work = _workspace("augmented", (n, 2 * n), _dtype((1, p)))
    work[:, :n] = _mod(a, p)
    work[:, n:] = 0
    np.fill_diagonal(work[:, n:], 1)
    for col in range(n):
        if not work[col, col]:
            units = work[col:, col].nonzero()[0]
            if not len(units):
                raise NonUnitError("no unit pivot; matrix is not invertible over the local factor")
            piv = col + int(units[0])
            work[[col, piv]] = work[[piv, col]]
        inv_piv = pow(int(work[col, col]), -1, p)
        if inv_piv != 1:
            work[col, col:] = _mod(work[col, col:] * inv_piv, p)
        factors = work[:, col].copy()
        factors[col] = 0
        rows = factors.nonzero()[0]
        if len(rows):
            work[rows, col:] = _mod(work[rows, col:] - factors[rows, None] * work[col, col:], p)
    out[...] = work[:, n:]


class RVec(_Blocks):
    """Column vector over a ring spec."""

    __slots__ = ()

    @classmethod
    def zeros(cls, spec: RingSpec, n: int) -> "RVec":
        return cls(spec, n, _zero_blocks(spec, n, (n,)))

    @classmethod
    def basis(cls, spec: RingSpec, n: int, i: int) -> "RVec":
        out = cls.zeros(spec, n)
        out.set_entry(i, spec.one)
        return out

    def entry(self, i: int) -> RingElem:
        return self._box((i,))

    def set_entry(self, i: int, x: RingElem) -> None:
        self._set((i,), x)

    def apply_x_left(self, move, xi: RingElem) -> None:
        """self <- g * self for a column vector (moves on its entries), as
        ``RMat.apply_x_left``."""
        self._apply_move(move, xi, True)

    def apply_x_right(self, move, xi: RingElem) -> None:
        """self <- self * g for a row vector, as ``RMat.apply_x_right``."""
        self._apply_move(move, xi, False)


def signed_entries(vec: RVec, idx, signs) -> list:
    """The entries signs * vec[idx] as ring elements, None where an entry is
    zero; only the nonzero ones are boxed."""
    columns = []
    nonzero = np.zeros(len(idx), dtype=bool)
    for f, blk in zip(vec.spec.factors, vec.blocks):
        vals = _mod(blk.take(idx, axis=1) * signs, f.layout[1], inplace=True)
        nonzero |= (vals != 0).any(axis=0)
        columns.append([f.part(coeffs) for coeffs in vals.T.tolist()])
    spec = vec.spec
    return [
        RingElem(spec, parts) if nz else None
        for nz, parts in zip(nonzero.tolist(), zip(*columns))
    ]


def pattern_images(mat: RMat, vec: RVec, table, values) -> _Blocks:
    """The vectors mat (e + xi_a P_a) vec for atoms a = 0..m-1, as the m
    columns of an (n, m) stack.

    ``table`` = (srcs, dsts, signs, owner) holds the atoms' patterns
    concatenated, owner[k] the atom of entry k; as in ``RMat.apply_x_left``,
    P_a vec carries signs * vec[srcs] to dsts.  Per factor the stack, as
    (s, n * m) entries, takes one line move (``_update_lines``) from
    srcs * m + owner to dsts * m + owner, the sources and targets of every
    atom in its own column, then one matrix product, whose entries sum n
    products as in ``*``.
    """
    if mat.spec != vec.spec:
        raise DomainError("matrix and vector over different rings")
    srcs, dsts, signs, owner = table
    m = len(values)
    targets, sources = dsts * m + owner, srcs * m + owner
    blocks = []
    for k, (f, a, v) in enumerate(zip(mat.spec.factors, mat.blocks, vec.blocks)):
        s, c = f.layout
        xi = np.array([x.parts[k] for x in values], dtype=_dtype(f.layout)).reshape(m, s).T
        cols = np.empty(v.shape + (m,), dtype=v.dtype)
        cols[...] = v[:, :, None]
        coeffs = [row[owner] * signs if row.any() else None for row in xi]
        _update_lines(cols.reshape(s, -1), c, targets, sources, coeffs, 1, True)
        blocks.append(_convolve(a, cols, f.layout, _float_ok(f.layout, mat.n)))
    return _Blocks(mat.spec, mat.n, blocks)


def mat_col(mat: RMat, j: int) -> RVec:
    return RVec(mat.spec, mat.n, [blk[:, :, j].copy() for blk in mat.blocks])


def mat_row(mat: RMat, i: int) -> RVec:
    return RVec(mat.spec, mat.n, [blk[:, i].copy() for blk in mat.blocks])
