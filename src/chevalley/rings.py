"""Exact arithmetic in finite products of chain rings, and in the integers.

A ring spec is a product of factors, each one of:

* ``zmod``  -- Z/p^k for a prime p (k = 0 is allowed and denotes the zero ring;
  it only arises through quotients),
* ``poly``  -- F_p[t]/(t^k),
* ``int``   -- the ring of integers (at most one factor, and then the only one).

Every factor has one layout (s, c), which the matrix blocks of ``matrices``
share: a residue is s coefficient slices, each reduced mod c.

* Z/p^k         -- s = 1, c = p^k (c = 1 in the zero ring),
* F_p[t]/(t^k)  -- s = k, slice i the t^i coefficient, c = p,
* Z             -- s = 1, c = 0 (never reduced).

A residue is an int over Z/p^k and Z, the tuple of its slices over
F_p[t]/(t^k) (``Factor.part``).  Element arithmetic reads only the layout:
sums add slices mod c, a product is the truncated convolution of the slices,
a unit is a residue whose constant slice is coprime to c (over Z, c = 0, that
leaves +-1), and an inverse is a Newton lift x <- x (2 - a x) of the constant
slice's inverse; ``matrices.RMat.inv`` lifts a matrix inverse by the same step.

Every ideal of such a product is principal per factor: in a chain factor it is
(pi^j) for the uniformizer pi and some 0 <= j <= k (j = k is the zero ideal),
and in the integers it is (m) for some m >= 0.  One chain rule serves both
chain kinds, Z/p^k (pi = p) and F_p[t]/(t^k) (pi = t):

* a residue lies in an ideal when each slice is a multiple of that slice's
  divisor (``Factor.divisors``), which gives membership and enumeration; the
  ideal's generator keeps the first nonzero divisor and zeroes the rest;
* the quotient by (pi^j) is the chain of length j, or Z/(m) split into its
  prime powers over Z (``Factor.quotient``); an element's image keeps the
  first s slices of each residue mod the quotient's c;
* the lattice splits once, on ``RingSpec.is_finite``: in a finite spec the
  exponents combine by min, max, a sum capped at k, and <=; over Z the
  generators by gcd, lcm, product and divisibility.

The kinds differ only in validation, ``layout`` and ``part``, the element
constructors, ``describe`` and JSON.
"""

from __future__ import annotations

import ast
import json
import operator
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from itertools import product as _iproduct
from math import gcd, lcm, prod
from typing import Iterator

from .errors import DomainError, NonUnitError, SpecMismatchError

ZMOD = "zmod"
POLY = "poly"
INT = "int"


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n >= 1 as sorted (p, k) pairs."""
    if n < 1:
        raise DomainError(f"cannot factorize {n}")
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            k = 0
            while n % d == 0:
                n //= d
                k += 1
            out.append((d, k))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


@dataclass(frozen=True)
class Factor:
    kind: str
    p: int = 0
    k: int = 0

    def __post_init__(self):
        # a bool, a float or a string for p or k would name another ring
        object.__setattr__(self, "p", _integer(self.p))
        object.__setattr__(self, "k", _integer(self.k))
        least_k = {ZMOD: 0, POLY: 1}.get(self.kind)
        if self.kind == INT:
            if self.p or self.k:
                raise DomainError(f"int factor takes no p or k, got {self}")
        elif least_k is None:
            raise DomainError(f"unknown factor kind {self.kind!r}")
        elif not _is_prime(self.p) or self.k < least_k:
            raise DomainError(f"{self.kind} factor needs a prime and k >= {least_k}, got {self}")

    @cached_property
    def layout(self) -> tuple[int, int]:
        """(s, c): s coefficient slices, each reduced mod c; c = 0 for the
        integers, which are never reduced."""
        if self.kind == POLY:
            return self.k, self.p
        return 1, (self.p**self.k if self.kind == ZMOD else 0)

    @property
    def size(self) -> int | None:
        s, c = self.layout
        return c**s if c else None

    def part(self, coeffs):
        """A residue from its slice coefficients: their tuple over
        F_p[t]/(t^k), the single coefficient otherwise."""
        return tuple(coeffs) if self.kind == POLY else coeffs[0]

    def divisors(self, j: int) -> tuple[int, ...]:
        """Per slice, the d_i such that a residue lies in the ideal with part
        j exactly when slice i is a multiple of d_i, where 0 divides only 0:
        j itself over Z; in a chain factor p^(j - i) for the slices i < j and
        1 for the others, each reduced mod c (so 0 once it reaches c)."""
        s, c = self.layout
        if not c:
            return (j,)
        return tuple([self.p ** (j - i) % c if i < j else 1 % c for i in range(s)])

    def quotient(self, j: int) -> tuple["Factor", ...]:
        """The factors of the quotient by the ideal with part j: in a chain
        factor the chain of length j (Z/p^0, the zero ring, at j = 0); over
        Z, Z/(j) split into its prime powers, Z/1 at j = 1 and Z at j = 0."""
        if self.layout[1]:
            return (replace(self, k=j) if j else Factor(ZMOD, self.p, 0),)
        if not j:
            return (self,)
        return tuple(Factor(ZMOD, p, k) for p, k in factorize(j)) or (Factor(ZMOD, 2, 0),)


@dataclass(frozen=True)
class RingSpec:
    factors: tuple[Factor, ...]

    def __post_init__(self):
        if not self.factors:
            raise DomainError("ring spec needs at least one factor")
        if any(f.kind == INT for f in self.factors) and len(self.factors) > 1:
            raise DomainError("the integers must be the only factor")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zmod(n: int) -> "RingSpec":
        """Z/n, split into its prime-power chain factors."""
        if n < 2:
            raise DomainError("zmod ring needs n >= 2")
        return RingSpec(tuple(Factor(ZMOD, p, k) for p, k in factorize(n)))

    @staticmethod
    def poly(p: int, k: int) -> "RingSpec":
        return RingSpec((Factor(POLY, p, k),))

    @staticmethod
    def integers() -> "RingSpec":
        return RingSpec((Factor(INT),))

    # -- basic queries -----------------------------------------------------

    @cached_property
    def is_finite(self) -> bool:
        return all(self.moduli)

    @cached_property
    def moduli(self) -> tuple[int, ...]:
        """The slice modulus c of each factor."""
        return tuple(f.layout[1] for f in self.factors)

    @property
    def size(self) -> int | None:
        return prod(f.size for f in self.factors) if self.is_finite else None

    def describe(self) -> str:
        return " x ".join(
            "Z" if f.kind == INT else f"F{f.p}[t]/(t^{f.k})" if f.kind == POLY else f"Z/{f.layout[1]}"
            for f in self.factors
        )

    # -- element constructors ---------------------------------------------

    def _reduce_part(self, i: int, part):
        """A residue given as an integer, or as its slices over
        F_p[t]/(t^k), reduced into the factor's layout."""
        f = self.factors[i]
        s, c = f.layout
        if f.kind == POLY and isinstance(part, (tuple, list)):
            if len(part) != s:
                raise DomainError(f"poly residue needs {s} coefficients")
            return tuple([_integer(x) % c for x in part])
        return f.part((_mod(_integer(part), c),) + (0,) * (s - 1))

    def el(self, x: int) -> "RingElem":
        """The image of an integer under the diagonal embedding."""
        x = _integer(x)
        return RingElem(self, tuple(self._reduce_part(i, x) for i in range(len(self.factors))))

    def from_parts(self, parts) -> "RingElem":
        parts = tuple(parts)
        if len(parts) != len(self.factors):
            raise DomainError("wrong number of residues")
        return RingElem(self, tuple(self._reduce_part(i, p) for i, p in enumerate(parts)))

    @cached_property
    def zero(self) -> "RingElem":
        return self.el(0)

    @cached_property
    def one(self) -> "RingElem":
        return self.el(1)

    def elements(self) -> Iterator["RingElem"]:
        """All elements of a finite ring, in a fixed order."""
        if not self.is_finite:
            raise DomainError("cannot enumerate an infinite ring")
        yield from _multiples(self, [(1,) * f.layout[0] for f in self.factors])

    def units(self) -> Iterator["RingElem"]:
        for x in self.elements():
            if x.is_unit():
                yield x

    @cached_property
    def ideal_products(self) -> dict | None:
        """The products of ideals computed so far, by (a.parts, b.parts):
        ``Ideal.__mul__`` returns the one frozen instance kept here.  A
        finite spec has finitely many ideals, so the table stays small; over
        Z it would be unbounded, and there is none (None)."""
        return {} if self.is_finite else None

    @cached_property
    def ideal_containments(self) -> dict | None:
        """As ``ideal_products``, whether a contains b, by (a.parts, b.parts)."""
        return {} if self.is_finite else None

    @cached_property
    def zero_ideal(self) -> "Ideal":
        return Ideal(self, tuple(f.k for f in self.factors))

    @cached_property
    def unit_ideal(self) -> "Ideal":
        return Ideal(self, (0,) * len(self.factors) if self.is_finite else (1,))

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        out = [{"kind": INT} if f.kind == INT else {"kind": f.kind, "p": f.p, "k": f.k} for f in self.factors]
        return {"factors": out}

    @staticmethod
    def from_json(data: dict) -> "RingSpec":
        return RingSpec(tuple(Factor(d["kind"], d.get("p", 0), d.get("k", 0)) for d in data["factors"]))


def _check_same_spec(a, b) -> None:
    if a.spec is not b.spec and a.spec != b.spec:
        raise SpecMismatchError(f"operands over {a.spec.describe()} vs {b.spec.describe()}")


# -- per-factor scalar kernels ----------------------------------------------


def _integer(x) -> int:
    """x as an int.  Integers pass, numpy's too; a bool, a float or a string,
    which ``int`` would take as 0 or 1, truncate or parse, raises
    DomainError."""
    if isinstance(x, bool):
        raise DomainError(f"{x!r} is not an integer")
    try:
        return operator.index(x)
    except TypeError:
        raise DomainError(f"{x!r} is not an integer") from None


def _mod(x, c: int, inplace: bool = False):
    """x mod c, for an int or an integer array; c = 0 leaves it, as over the
    integers.  A power of two c keeps the low bits, x & (c - 1), which is
    exact in two's complement for negative x too and gives 0 for c = 1; it
    costs a fraction of an int64 ``%``.  With ``inplace``, an array is
    reduced in place, so no new block is made, and returned."""
    if not c:
        return x
    if not inplace:
        return x % c if c & (c - 1) else x & (c - 1)
    if c & (c - 1):
        x %= c
    else:
        x &= c - 1
    return x


def _product(a, b, c: int) -> tuple:
    """The truncated product of two coefficient sequences mod c: slice t sums
    a_i b_(t-i) over i <= t."""
    s = len(a)
    out = [0] * s
    for i, ai in enumerate(a):
        if ai:
            for j in range(s - i):
                out[i + j] = (out[i + j] + ai * b[j]) % c
    return tuple(out)


def _is_unit(a, c: int) -> bool:
    """The constant slice is coprime to c: over Z (c = 0) it is +-1, and in
    the zero ring (c = 1) every residue is a unit."""
    return gcd(a[0] if isinstance(a, tuple) else a, c) == 1


def _inverse(a: tuple, c: int) -> tuple:
    """The inverse of a unit's coefficient sequence: the constant slice's
    inverse mod c, lifted by Newton steps x <- x (2 - a x), each doubling the
    precision in t."""
    x = (pow(a[0], -1, c),) + (0,) * (len(a) - 1)
    prec = 1
    while prec < len(a):
        step = [-v for v in _product(a, x, c)]
        step[0] += 2
        x = _product(x, step, c)
        prec *= 2
    return x


def _valuation(part, p: int, k: int) -> int:
    """The least i + v_p(a_i) over the slices a_i of a residue, capped at k
    (so k for zero); an integer residue is its own single slice."""
    v = k
    for i, a in enumerate(part if isinstance(part, tuple) else (part,)):
        if i >= v:
            break
        if a:
            while a % p == 0 and i < v:
                a //= p
                i += 1
            v = i
    return v


def _multiples(spec: RingSpec, divisors) -> Iterator["RingElem"]:
    """The elements of a finite spec whose slices are multiples of the given
    divisors (per factor, per slice; 0 allows only 0), in lexicographic
    order."""
    options = []
    for f, ds in zip(spec.factors, divisors):
        c = f.layout[1]
        options.append([f.part(cs) for cs in _iproduct(*(range(0, c, d or c) for d in ds))])
    for parts in _iproduct(*options):
        yield RingElem(spec, parts)


@dataclass(frozen=True)
class RingElem:
    spec: RingSpec
    parts: tuple

    def __add__(self, other: "RingElem") -> "RingElem":
        _check_same_spec(self, other)
        out = []
        for a, b, c in zip(self.parts, other.parts, self.spec.moduli):
            if isinstance(a, tuple):
                out.append(tuple([(x + y) % c for x, y in zip(a, b)]))
            else:
                out.append((a + b) % c if c else a + b)
        return RingElem(self.spec, tuple(out))

    def __neg__(self) -> "RingElem":
        out = []
        for a, c in zip(self.parts, self.spec.moduli):
            if isinstance(a, tuple):
                out.append(tuple([-x % c for x in a]))
            else:
                out.append(-a % c if c else -a)
        return RingElem(self.spec, tuple(out))

    def __sub__(self, other: "RingElem") -> "RingElem":
        return self + (-other)

    def __mul__(self, other: "RingElem") -> "RingElem":
        _check_same_spec(self, other)
        out = []
        for a, b, c in zip(self.parts, other.parts, self.spec.moduli):
            if isinstance(a, tuple):
                out.append(_product(a, b, c))
            else:
                out.append(a * b % c if c else a * b)
        return RingElem(self.spec, tuple(out))

    def is_zero(self) -> bool:
        return not any(any(a) if isinstance(a, tuple) else a for a in self.parts)

    def is_unit(self) -> bool:
        return all(map(_is_unit, self.parts, self.spec.moduli))

    def inv(self) -> "RingElem":
        out = []
        for a, c in zip(self.parts, self.spec.moduli):
            if not _is_unit(a, c):
                raise NonUnitError(f"{a} is not a unit mod {c}" if c else f"{a} is not invertible over the integers")
            if isinstance(a, tuple):
                out.append(_inverse(a, c))
            else:
                # one slice: Newton's seed is the inverse; over Z, +-1 is its own
                out.append(pow(a, -1, c) if c else a)
        return RingElem(self.spec, tuple(out))

    def to_json(self):
        return [list(p) if isinstance(p, tuple) else p for p in self.parts]

    @staticmethod
    def from_json(spec: RingSpec, data) -> "RingElem":
        if not isinstance(data, (list, tuple)):
            return spec.el(data)
        return spec.from_parts(tuple(tuple(p) if isinstance(p, list) else p for p in data))

    def __repr__(self):
        return f"RingElem({self.parts!r} over {self.spec.describe()})"


# -- ideals -------------------------------------------------------------------


@dataclass(frozen=True)
class Ideal:
    """Per-factor principal ideal: exponent j in chain factors, generator m in Z.

    Over a finite spec, a product of two ideals is computed once and kept in
    the spec's ``ideal_products`` table; every later product of the same two
    ideals returns that shared instance.  Containment is kept the same way,
    in ``ideal_containments``.  Over Z both are computed each time."""

    spec: RingSpec
    parts: tuple[int, ...]

    def __post_init__(self):
        spec, parts = self.spec, self.parts
        if len(parts) != len(spec.factors):
            raise DomainError(f"an ideal of {spec.describe()} needs {len(spec.factors)} parts, got {parts}")
        finite = spec.is_finite
        for f, j in zip(spec.factors, parts):
            if type(j) is not int:
                # a bool or a float would name another ideal; numpy integers become ints
                object.__setattr__(self, "parts", tuple(map(_integer, parts)))
                return self.__post_init__()
            if j < 0 or finite and j > f.k:
                raise DomainError(f"ideal part {j} out of range for {f}")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(spec: RingSpec) -> "Ideal":
        """The zero ideal, one instance per spec (``RingSpec.zero_ideal``)."""
        return spec.zero_ideal

    @staticmethod
    def unit(spec: RingSpec) -> "Ideal":
        """The unit ideal, one instance per spec (``RingSpec.unit_ideal``)."""
        return spec.unit_ideal

    @staticmethod
    def from_elems(spec: RingSpec, elems) -> "Ideal":
        """The ideal generated by the given elements: per factor the least
        valuation, or over Z the gcd."""
        if not spec.is_finite:
            return Ideal(spec, (gcd(*(x.parts[0] for x in elems)),))
        parts = [f.k for f in spec.factors]
        for x in elems:
            parts = [_valuation(a, f.p, v) for f, a, v in zip(spec.factors, x.parts, parts)]
        return Ideal(spec, tuple(parts))

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "Ideal") -> "Ideal":
        _check_same_spec(self, other)
        return Ideal(self.spec, tuple(map(min if self.spec.is_finite else gcd, self.parts, other.parts)))

    def __mul__(self, other: "Ideal") -> "Ideal":
        _check_same_spec(self, other)
        table = self.spec.ideal_products
        if table is None:
            return Ideal(self.spec, (self.parts[0] * other.parts[0],))
        key = (self.parts, other.parts)
        if key not in table:
            parts = tuple(min(a + b, f.k) for f, a, b in zip(self.spec.factors, self.parts, other.parts))
            table[key] = Ideal(self.spec, parts)
        return table[key]

    def __and__(self, other: "Ideal") -> "Ideal":
        _check_same_spec(self, other)
        return Ideal(self.spec, tuple(map(max if self.spec.is_finite else lcm, self.parts, other.parts)))

    def square(self) -> "Ideal":
        return self * self

    def contains(self, other: "Ideal") -> bool:
        _check_same_spec(self, other)
        table = self.spec.ideal_containments
        if table is None:
            (a,), (b,) = self.parts, other.parts
            return b % a == 0 if a else b == 0
        key = (self.parts, other.parts)
        if key not in table:
            table[key] = all(a <= b for a, b in zip(self.parts, other.parts))
        return table[key]

    def __le__(self, other: "Ideal") -> bool:
        return other.contains(self)

    @cached_property
    def divisors(self) -> tuple[tuple[int, ...], ...]:
        """``Factor.divisors`` of each factor's part."""
        return tuple([f.divisors(j) for f, j in zip(self.spec.factors, self.parts)])

    def __contains__(self, x: RingElem) -> bool:
        _check_same_spec(self, x)
        for part, ds in zip(x.parts, self.divisors):
            if isinstance(part, tuple):
                for a, d in zip(part, ds):
                    if a % d if d else a:
                        return False
            elif part % ds[0] if ds[0] else part:
                return False
        return True

    def is_zero(self) -> bool:
        return self.parts == self.spec.zero_ideal.parts

    def is_unit_ideal(self) -> bool:
        return self.parts == self.spec.unit_ideal.parts

    def generator(self) -> RingElem:
        """Canonical single generator (pi^j per chain factor, m in Z): per
        factor, the first slice whose divisor is nonzero holds that divisor,
        and every other slice is 0."""
        parts = []
        for f, ds in zip(self.spec.factors, self.divisors):
            for i, d in enumerate(ds):
                if d:
                    ds = ds[: i + 1] + (0,) * (len(ds) - i - 1)
                    break
            parts.append(f.part(ds))
        return RingElem(self.spec, tuple(parts))

    def elements(self) -> Iterator[RingElem]:
        if not self.spec.is_finite:
            raise DomainError("cannot enumerate an ideal of an infinite ring")
        yield from _multiples(self.spec, self.divisors)

    # -- quotients -----------------------------------------------------------

    def quotient_spec(self) -> RingSpec:
        return RingSpec(tuple(q for f, j in zip(self.spec.factors, self.parts) for q in f.quotient(j)))

    def reduce_elem(self, x: RingElem) -> RingElem:
        """Image of x in the quotient by this ideal: per quotient factor, the
        first s slices of the residue mod its c."""
        _check_same_spec(self, x)
        parts = []
        for f, j, part in zip(self.spec.factors, self.parts, x.parts):
            slices = part if isinstance(part, tuple) else (part,)
            for q in f.quotient(j):
                s, c = q.layout
                parts.append(q.part([_mod(a, c) for a in slices[:s]]))
        return RingElem(self.quotient_spec(), tuple(parts))

    def reduce_ideal(self, other: "Ideal") -> "Ideal":
        """Image of another ideal in the quotient by this ideal: the ideal
        generated by the image of its generator."""
        _check_same_spec(self, other)
        image = self.reduce_elem(other.generator())
        return Ideal.from_elems(image.spec, [image])

    def to_json(self):
        return list(self.parts)

    @staticmethod
    def from_json(spec: RingSpec, data) -> "Ideal":
        return Ideal(spec, tuple(_integer(j) for j in data))

    def describe(self) -> str:
        if self.is_zero():
            return "(0)"
        if self.is_unit_ideal():
            return "(1)"
        g = self.generator()
        return f"({g.parts if len(g.parts) > 1 else g.parts[0]})"

    @staticmethod
    def parse(spec: RingSpec, text: str) -> "Ideal":
        """Read ``(g)`` as ``describe`` writes it: g an integer, mapped
        diagonally into the ring, or the tuple of the generator's residues
        (a ring of one factor drops the outer tuple).  A nonzero integer that
        is zero in the ring, or a residue outside its factor's range, is
        refused, since it would silently name another ideal."""
        try:
            value = ast.literal_eval(text.strip())
        except (ValueError, TypeError, SyntaxError, RecursionError):
            value = None
        if type(value) is int:
            if value and spec.el(value).is_zero():
                raise DomainError(f"{value} is zero in {spec.describe()}; write the ideal (0) as (0)")
            return Ideal.from_elems(spec, [spec.el(value)])
        if type(value) is tuple:
            parts = (value,) if len(spec.factors) == 1 else value
            zero = spec.zero.parts
            if len(parts) == len(zero) and all(
                type(p) is tuple and all(type(c) is int for c in p) if type(z) is tuple else type(p) is int
                for z, p in zip(zero, parts)
            ):
                g = spec.from_parts(parts)
                if g.parts != parts:
                    raise DomainError(f"residues {value} out of range for {spec.describe()}")
                return Ideal.from_elems(spec, [g])
        raise DomainError(f"cannot parse ideal {text.strip()!r}")


@lru_cache(maxsize=None)
def named_ring(name: str) -> RingSpec:
    """Parse shorthand ring names: ``z8``, ``z12``, ``f2t2``, ``int``."""
    name = name.strip().lower()
    if name in ("z", "int", "integers"):
        return RingSpec.integers()
    if name.startswith("z") and name[1:].isdigit():
        return RingSpec.zmod(int(name[1:]))
    if name.startswith("f") and "t" in name:
        p_str, k_str = name[1:].split("t", 1)
        if p_str.isdigit() and k_str.isdigit():
            return RingSpec.poly(int(p_str), int(k_str))
    try:
        return RingSpec.from_json(json.loads(name))
    except (json.JSONDecodeError, KeyError, TypeError):
        raise DomainError(f"cannot parse ring name {name!r}") from None
