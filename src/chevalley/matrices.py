"""Dense matrices and vectors over chain-ring products.

A matrix over a ring spec is a list of per-factor blocks:

* zmod factor  -- an int64 array reduced mod p^k (float64 matmul is used when
  the entries are small enough for it to be exact, since it is much faster),
* poly factor  -- k coefficient slices, each an int64 array mod p,
* int factor   -- an object array of exact Python integers.

The root-element action is applied as vectorized row or column updates; the
source and target index sets of a root pattern never overlap (the module is
minuscule), so in-place updates are safe.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, NonUnitError, UnsupportedCaseError
from .rings import INT, POLY, ZMOD, Ideal, RingElem, RingSpec

_FLOAT_SAFE = 2**52


def _zmod_mul(a: np.ndarray, b: np.ndarray, m: int) -> np.ndarray:
    if m == 1:
        return np.zeros_like(a)
    if (m - 1) * (m - 1) * a.shape[1] < _FLOAT_SAFE:
        c = np.rint(a.astype(np.float64) @ b.astype(np.float64)).astype(np.int64)
        return c % m
    return (a @ b) % m


class RMat:
    """Square matrix over a ring spec."""

    __slots__ = ("spec", "n", "blocks")

    def __init__(self, spec: RingSpec, n: int, blocks: list):
        self.spec = spec
        self.n = n
        self.blocks = blocks

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def _zero_block(f, n: int):
        if f.kind == ZMOD:
            return np.zeros((n, n), dtype=np.int64)
        if f.kind == POLY:
            return np.zeros((f.k, n, n), dtype=np.int64)
        blk = np.empty((n, n), dtype=object)
        blk[:] = 0
        return blk

    @classmethod
    def zeros(cls, spec: RingSpec, n: int) -> "RMat":
        return cls(spec, n, [cls._zero_block(f, n) for f in spec.factors])

    @classmethod
    def identity(cls, spec: RingSpec, n: int) -> "RMat":
        out = cls.zeros(spec, n)
        for f, blk in zip(spec.factors, out.blocks):
            if f.kind == ZMOD:
                if f.modulus > 1:
                    np.fill_diagonal(blk, 1)
            elif f.kind == POLY:
                np.fill_diagonal(blk[0], 1)
            else:
                np.fill_diagonal(blk, 1)
        return out

    def copy(self) -> "RMat":
        return RMat(self.spec, self.n, [blk.copy() for blk in self.blocks])

    # -- ring of entries --------------------------------------------------------

    def entry(self, i: int, j: int) -> RingElem:
        parts = []
        for f, blk in zip(self.spec.factors, self.blocks):
            if f.kind == ZMOD:
                parts.append(int(blk[i, j]))
            elif f.kind == POLY:
                parts.append(tuple(int(blk[s, i, j]) for s in range(f.k)))
            else:
                parts.append(int(blk[i, j]))
        return RingElem(self.spec, tuple(parts))

    def set_entry(self, i: int, j: int, x: RingElem) -> None:
        if x.spec != self.spec:
            raise DomainError("entry belongs to a different ring")
        for f, blk, part in zip(self.spec.factors, self.blocks, x.parts):
            if f.kind == POLY:
                for s in range(f.k):
                    blk[s, i, j] = part[s]
            else:
                blk[i, j] = part

    # -- arithmetic ----------------------------------------------------------------

    def __mul__(self, other: "RMat") -> "RMat":
        if self.spec != other.spec:
            raise DomainError("matrix product over different rings")
        blocks = []
        for f, a, b in zip(self.spec.factors, self.blocks, other.blocks):
            if f.kind == ZMOD:
                blocks.append(_zmod_mul(a, b, f.modulus))
            elif f.kind == POLY:
                out = np.zeros_like(a)
                for s in range(f.k):
                    acc = np.zeros((self.n, self.n), dtype=np.int64)
                    for i in range(s + 1):
                        acc += _zmod_mul(a[i], b[s - i], f.p)
                    out[s] = acc % f.p
                blocks.append(out)
            else:
                blocks.append(a.dot(b))
        return RMat(self.spec, self.n, blocks)

    def __add__(self, other: "RMat") -> "RMat":
        blocks = []
        for f, a, b in zip(self.spec.factors, self.blocks, other.blocks):
            if f.kind == ZMOD:
                blocks.append((a + b) % max(f.modulus, 1))
            elif f.kind == POLY:
                blocks.append((a + b) % f.p)
            else:
                blocks.append(a + b)
        return RMat(self.spec, self.n, blocks)

    def __sub__(self, other: "RMat") -> "RMat":
        blocks = []
        for f, a, b in zip(self.spec.factors, self.blocks, other.blocks):
            if f.kind == ZMOD:
                blocks.append((a - b) % max(f.modulus, 1))
            elif f.kind == POLY:
                blocks.append((a - b) % f.p)
            else:
                blocks.append(a - b)
        return RMat(self.spec, self.n, blocks)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RMat) or self.spec != other.spec:
            return False
        return all(np.array_equal(a, b) for a, b in zip(self.blocks, other.blocks))

    def is_identity(self) -> bool:
        return self == RMat.identity(self.spec, self.n)

    def is_zero_at(self, i: int, j: int) -> bool:
        for f, blk in zip(self.spec.factors, self.blocks):
            if f.kind == POLY:
                if any(blk[s, i, j] != 0 for s in range(f.k)):
                    return False
            elif blk[i, j] != 0:
                return False
        return True

    def transpose(self) -> "RMat":
        blocks = []
        for f, blk in zip(self.spec.factors, self.blocks):
            if f.kind == POLY:
                blocks.append(np.transpose(blk, (0, 2, 1)).copy())
            else:
                blocks.append(blk.T.copy())
        return RMat(self.spec, self.n, blocks)

    # -- root-pattern updates ----------------------------------------------------

    def apply_x_right(self, pattern, xi: RingElem) -> None:
        """self <- self * (e + xi * P) for a root pattern P (column update)."""
        srcs, dsts, signs = pattern
        for f, blk, part in zip(self.spec.factors, self.blocks, xi.parts):
            if f.kind == ZMOD:
                m = f.modulus
                if m == 1:
                    continue
                blk[:, srcs] = (blk[:, srcs] + (signs * (part % m)) * blk[:, dsts]) % m
            elif f.kind == POLY:
                taken = blk[:, :, dsts].copy()
                for s in range(f.k):
                    acc = blk[s][:, srcs]
                    for i in range(s + 1):
                        if part[i]:
                            acc = acc + (signs * part[i]) * taken[s - i]
                    blk[s][:, srcs] = acc % f.p
            else:
                blk[:, srcs] = blk[:, srcs] + (signs * part) * blk[:, dsts]

    def apply_x_left(self, pattern, xi: RingElem) -> None:
        """self <- (e + xi * P) * self (row update)."""
        srcs, dsts, signs = pattern
        for f, blk, part in zip(self.spec.factors, self.blocks, xi.parts):
            if f.kind == ZMOD:
                m = f.modulus
                if m == 1:
                    continue
                blk[dsts, :] = (blk[dsts, :] + (signs * (part % m))[:, None] * blk[srcs, :]) % m
            elif f.kind == POLY:
                taken = blk[:, srcs, :].copy()
                for s in range(f.k):
                    acc = blk[s][dsts, :]
                    for i in range(s + 1):
                        if part[i]:
                            acc = acc + (signs * part[i])[:, None] * taken[s - i]
                    blk[s][dsts, :] = acc % f.p
            else:
                blk[dsts, :] = blk[dsts, :] + (signs * part)[:, None] * blk[srcs, :]

    # -- quotients -----------------------------------------------------------------

    def reduce(self, ideal: Ideal) -> "RMat":
        """Entrywise image in the quotient by the ideal."""
        if ideal.spec != self.spec:
            raise DomainError("ideal over a different ring")
        qspec = ideal.quotient_spec()
        out = RMat.zeros(qspec, self.n)
        qi = 0
        for f, j, blk in zip(self.spec.factors, ideal.parts, self.blocks):
            if f.kind == INT:
                if j == 0:
                    out.blocks[qi][:, :] = blk
                    qi += 1
                elif j == 1:
                    qi += 1
                else:
                    from .rings import factorize

                    for p, k in factorize(j):
                        out.blocks[qi][:, :] = (blk % (p**k)).astype(np.int64)
                        qi += 1
            elif f.kind == ZMOD:
                m = f.p**j
                if m > 1:
                    out.blocks[qi][:, :] = blk % m
                qi += 1
            else:
                if j > 0:
                    out.blocks[qi][:, :, :] = blk[:j]
                qi += 1
        return out

    # -- inversion -------------------------------------------------------------------

    def inv(self) -> "RMat":
        """Inverse by per-factor elimination with unit pivots.

        Works over any finite spec; over the integers only via the identity
        shortcut, since general integer inverses are not representable.
        """
        blocks = []
        for f, blk in zip(self.spec.factors, self.blocks):
            if f.kind == ZMOD:
                blocks.append(_inv_zmod(blk, f.p, f.k, self.n))
            elif f.kind == POLY:
                blocks.append(_inv_poly(blk, f.p, f.k, self.n))
            else:
                ident = np.empty((self.n, self.n), dtype=object)
                ident[:] = 0
                np.fill_diagonal(ident, 1)
                if np.array_equal(blk, ident):
                    blocks.append(ident)
                else:
                    raise UnsupportedCaseError("matrix inversion over the integers is not supported")
        return RMat(self.spec, self.n, blocks)

    def mul_vec(self, v: "RVec") -> "RVec":
        if self.spec != v.spec:
            raise DomainError("matrix and vector over different rings")
        out = RVec.zeros(self.spec, self.n)
        for f, blk, src, dst in zip(self.spec.factors, self.blocks, v.blocks, out.blocks):
            if f.kind == ZMOD:
                m = f.modulus
                if m > 1:
                    dst[:] = (blk @ src) % m
            elif f.kind == POLY:
                for s in range(f.k):
                    acc = np.zeros(self.n, dtype=np.int64)
                    for i in range(s + 1):
                        acc += blk[i] @ src[s - i]
                    dst[s] = acc % f.p
            else:
                dst[:] = blk.dot(src)
        return out

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


def _inv_zmod(a: np.ndarray, p: int, k: int, n: int) -> np.ndarray:
    """Gauss-Jordan inverse mod p^k.  The pivot of a column is its first unit
    entry on or below the diagonal, found with one ``nonzero`` when the
    diagonal entry is not a unit; every other row with a nonzero entry in the
    pivot column is cleared in one outer-product update."""
    m = p**k
    if m == 1:
        return np.zeros_like(a)
    work = a.astype(np.int64) % m
    out = np.zeros_like(work)
    np.fill_diagonal(out, 1)
    for col in range(n):
        if work[col, col] % p:
            piv = col
        else:
            units = (work[col:, col] % p).nonzero()[0]
            if not len(units):
                raise NonUnitError("no unit pivot; matrix is not invertible over the local factor")
            piv = col + int(units[0])
            work[[col, piv]] = work[[piv, col]]
            out[[col, piv]] = out[[piv, col]]
        inv_piv = pow(int(work[col, col]), -1, m)
        if inv_piv != 1:
            work[col] = (work[col] * inv_piv) % m
            out[col] = (out[col] * inv_piv) % m
        factors = work[:, col].copy()
        factors[col] = 0
        rows = factors.nonzero()[0]
        if len(rows):
            f = factors[rows, None]
            work[rows] = (work[rows] - f * work[col]) % m
            out[rows] = (out[rows] - f * out[col]) % m
    return out


def _inv_poly(a: np.ndarray, p: int, k: int, n: int) -> np.ndarray:
    # invert the constant slice over F_p, then Newton-lift in t
    x0 = _inv_zmod(a[0], p, 1, n)
    x = np.zeros_like(a)
    x[0] = x0
    prec = 1
    while prec < k:
        # x <- x (2 - a x) truncated to t^k
        ax = np.zeros_like(a)
        for s in range(k):
            acc = np.zeros((n, n), dtype=np.int64)
            for i in range(s + 1):
                acc += _zmod_mul(a[i], x[s - i], p)
            ax[s] = acc % p
        two_minus = (-ax) % p
        two_minus[0] = (two_minus[0] + 2 * np.eye(n, dtype=np.int64)) % p
        new = np.zeros_like(a)
        for s in range(k):
            acc = np.zeros((n, n), dtype=np.int64)
            for i in range(s + 1):
                acc += _zmod_mul(x[i], two_minus[s - i], p)
            new[s] = acc % p
        x = new
        prec *= 2
    return x


class RVec:
    """Column vector over a ring spec."""

    __slots__ = ("spec", "n", "blocks")

    def __init__(self, spec: RingSpec, n: int, blocks: list):
        self.spec = spec
        self.n = n
        self.blocks = blocks

    @classmethod
    def zeros(cls, spec: RingSpec, n: int) -> "RVec":
        blocks = []
        for f in spec.factors:
            if f.kind == ZMOD:
                blocks.append(np.zeros(n, dtype=np.int64))
            elif f.kind == POLY:
                blocks.append(np.zeros((f.k, n), dtype=np.int64))
            else:
                blk = np.empty(n, dtype=object)
                blk[:] = 0
                blocks.append(blk)
        return cls(spec, n, blocks)

    @classmethod
    def basis(cls, spec: RingSpec, n: int, i: int) -> "RVec":
        out = cls.zeros(spec, n)
        one = spec.one
        out.set_entry(i, one)
        return out

    def copy(self) -> "RVec":
        return RVec(self.spec, self.n, [blk.copy() for blk in self.blocks])

    def entry(self, i: int) -> RingElem:
        parts = []
        for f, blk in zip(self.spec.factors, self.blocks):
            if f.kind == POLY:
                parts.append(tuple(int(blk[s, i]) for s in range(f.k)))
            else:
                parts.append(int(blk[i]))
        return RingElem(self.spec, tuple(parts))

    def set_entry(self, i: int, x: RingElem) -> None:
        for f, blk, part in zip(self.spec.factors, self.blocks, x.parts):
            if f.kind == POLY:
                for s in range(f.k):
                    blk[s, i] = part[s]
            else:
                blk[i] = part

    def __eq__(self, other) -> bool:
        if not isinstance(other, RVec) or self.spec != other.spec:
            return False
        return all(np.array_equal(a, b) for a, b in zip(self.blocks, other.blocks))

    def apply_x(self, pattern, xi: RingElem) -> None:
        """self <- (e + xi * P) * self."""
        srcs, dsts, signs = pattern
        for f, blk, part in zip(self.spec.factors, self.blocks, xi.parts):
            if f.kind == ZMOD:
                m = f.modulus
                if m == 1:
                    continue
                blk[dsts] = (blk[dsts] + (signs * (part % m)) * blk[srcs]) % m
            elif f.kind == POLY:
                taken = blk[:, srcs].copy()
                for s in range(f.k):
                    acc = blk[s][dsts]
                    for i in range(s + 1):
                        if part[i]:
                            acc = acc + (signs * part[i]) * taken[s - i]
                    blk[s][dsts] = acc % f.p
            else:
                blk[dsts] = blk[dsts] + (signs * part) * blk[srcs]


def signed_entries(vec: RVec, idx, signs) -> list:
    """The entries signs * vec[idx] as ring elements, None where an entry is
    zero; only the nonzero ones are boxed."""
    columns = []
    nonzero = np.zeros(len(idx), dtype=bool)
    for f, blk in zip(vec.spec.factors, vec.blocks):
        if f.kind == POLY:
            vals = (blk[:, idx] * signs) % f.p
            nonzero |= vals.any(axis=0)
            columns.append([tuple(c) for c in vals.T.tolist()])
        elif f.kind == ZMOD:
            vals = (blk[idx] * signs) % f.modulus
            nonzero |= vals != 0
            columns.append(vals.tolist())
        else:
            vals = [int(v) * int(c) for v, c in zip(blk[idx], signs)]
            nonzero |= np.array([v != 0 for v in vals], dtype=bool)
            columns.append(vals)
    spec = vec.spec
    return [
        RingElem(spec, parts) if nz else None
        for nz, parts in zip(nonzero.tolist(), zip(*columns))
    ]


def mat_col(mat: RMat, j: int) -> RVec:
    out = RVec.zeros(mat.spec, mat.n)
    for f, src, dst in zip(mat.spec.factors, mat.blocks, out.blocks):
        if f.kind == POLY:
            dst[:, :] = src[:, :, j]
        else:
            dst[:] = src[:, j]
    return out


def mat_row(mat: RMat, i: int) -> RVec:
    out = RVec.zeros(mat.spec, mat.n)
    for f, src, dst in zip(mat.spec.factors, mat.blocks, out.blocks):
        if f.kind == POLY:
            dst[:, :] = src[:, i, :]
        else:
            dst[:] = src[i, :]
    return out
