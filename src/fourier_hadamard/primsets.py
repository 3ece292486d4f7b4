"""Residue selections modulo m and their difference and primitive sets.

The primitive set of a selection records the orders of the roots of unity
e^(2*pi*i*d/m) over all pairwise differences d; it is the invariant that
decides which selections pair into Hadamard submatrices.
"""

from __future__ import annotations

from itertools import combinations
from math import gcd, prod

from .numtheory import ModulusContext, cyclotomic_at_one, modulus_context

__all__ = [
    "ResidueSet",
    "PrimitiveSet",
    "difference_set",
    "primitive_set",
    "interned_primitive_set",
    "size_divisor",
    "shift",
    "scale",
    "normalize",
]


class Record:
    """Read-only value record: its fields are its ``__slots__``, in order.

    Equal when of one class with equal fields, hashed and shown by them;
    subclasses set their fields through ``object.__setattr__``.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _fields(self) -> tuple:
        return tuple(map(self.__getattribute__, self.__slots__))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    # every record's constructor takes its fields in order
    def __reduce__(self):
        return type(self), self._fields()


class ResidueSet(Record):
    """A nonempty set of distinct residues in [0, modulus)."""

    __slots__ = ("modulus", "elements")

    def __init__(self, modulus: int, elements: tuple[int, ...]):
        if modulus < 1:
            raise ValueError(f"modulus must be positive, got {modulus}")
        elems = tuple(sorted(elements))
        if not elems:
            raise ValueError("residue set must be nonempty")
        if len(set(elems)) != len(elems):
            raise ValueError(f"duplicate residues in {elems}")
        if elems[0] < 0 or elems[-1] >= modulus:
            raise ValueError(f"residues {elems} out of range for modulus {modulus}")
        _set = object.__setattr__
        _set(self, "modulus", modulus)
        _set(self, "elements", elems)

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __str__(self) -> str:
        return "{" + ",".join(map(str, self.elements)) + "}"


class PrimitiveSet(tuple):
    """A sorted set of positive integers that always contains 1.

    A tuple of its elements: hashing, equality, ordering, ``len``, ``in``
    and iteration are the tuple's, so ``PrimitiveSet((1, 2)) == (1, 2)``,
    and primitive sets computed under different moduli compare directly.
    The modulus is context carried by the residue set they came from, not
    state stored here.
    """

    __slots__ = ()

    def __new__(cls, elements):
        elems = tuple(sorted(set(elements)))
        if not elems or elems[0] < 1:
            raise ValueError("primitive set elements must be positive integers")
        if elems[0] != 1:
            raise ValueError("a primitive set always contains 1")
        return super().__new__(cls, elems)

    # a plain tuple, so that witness dicts print the elements, not the class
    elements = property(tuple)

    def without_one(self) -> tuple[int, ...]:
        return self[1:]

    def __str__(self) -> str:
        return "{" + ",".join(map(str, self)) + "}"

    def __repr__(self) -> str:
        return f"PrimitiveSet({list(self)!r})"


def difference_set(x: ResidueSet) -> set[int]:
    """All pairwise differences x1 - x2; contains 0, symmetric under negation."""
    out = {0}
    for a, b in combinations(x.elements, 2):
        out.add(b - a)
        out.add(a - b)
    return out


def primitive_set(x: ResidueSet) -> PrimitiveSet:
    """The set {m / gcd(m, d)} over the differences d of x; always contains 1.

    Every element divides the modulus of x.  Negated differences give the
    same gcd, so only one sign per pair is consulted.  The orders are ORed
    into a mask over the divisor bits of m's context, and the context
    interns one PrimitiveSet per mask: equal primitive sets of one modulus
    are one object, and m is never factorized.
    """
    m = x.modulus
    ctx = modulus_context(m)
    bit = ctx.bit
    # 1 is in every primitive set and never the order of a difference of
    # two residues, so it has no bit: the empty mask stands for {1}
    mask = 0
    for a, b in combinations(x.elements, 2):
        g = gcd(m, b - a)
        mask |= bit.get(g) or ctx.add_bit(g)
    return interned_primitive_set(ctx, mask)


def interned_primitive_set(ctx: ModulusContext, mask: int) -> PrimitiveSet:
    """The one PrimitiveSet of m's context with 1 and the orders of the bits
    set in mask, created on first request."""
    prims = ctx.interned.get(mask)
    if prims is None:
        prims = ctx.interned[mask] = PrimitiveSet([1, *ctx.orders_of(mask)])
    return prims


def size_divisor(prims: PrimitiveSet) -> int:
    """Product of the cyclotomic values at 1 over the members of a primitive
    set other than 1.

    Equivalently the product of the prime bases of the prime-power members.
    Any Hadamard submatrix whose row set has this primitive set has a size
    divisible by this number, which makes it a cheap screen.  {1}, the
    primitive set of a singleton, gives the empty product, 1.
    """
    return prod(cyclotomic_at_one(s) for s in prims.without_one())


def shift(x: ResidueSet, v: int) -> ResidueSet:
    """Translate every element by v modulo the modulus."""
    m = x.modulus
    return ResidueSet(m, tuple((e + v) % m for e in x.elements))


def scale(x: ResidueSet, v: int) -> ResidueSet:
    """Multiply the modulus and every element by v >= 1.

    Primitive sets are invariant under this map, which is what lets graphs
    for m embed in graphs for v*m.
    """
    if v < 1:
        raise ValueError(f"scale factor must be positive, got {v}")
    return ResidueSet(x.modulus * v, tuple(e * v for e in x.elements))


def normalize(x: ResidueSet) -> ResidueSet:
    """Canonical representative: the lexicographically least shift containing 0.

    Only shifts by the negation of a member can contain 0, so candidates are
    one per element.  Idempotent, and stable across runs, which keeps golden
    outputs byte-identical.
    """
    m = x.modulus
    best = min(
        tuple(sorted((e - a) % m for e in x.elements)) for a in x.elements
    )
    return ResidueSet(m, best)
