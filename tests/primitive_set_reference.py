"""Independent per-call reference for primitive sets.

``fourier_hadamard.primsets.primitive_set`` returns a ``PrimitiveSet``, a
tuple subclass whose equality, hashing and ordering are the tuple's.  This
module computes the same set, a fresh set of m / gcd(m, d) per call, held
by the class that used to carry primitive sets, with its equality, hashing
and ordering written out in Python, so that the tests compare two
separately written classes.
"""

from __future__ import annotations

from itertools import combinations
from math import gcd


class ReferencePrimitiveSet:
    """A sorted set of positive integers that always contains 1."""

    __slots__ = ("elements",)

    def __init__(self, elements):
        elems = tuple(sorted(set(elements)))
        if not elems or elems[0] < 1:
            raise ValueError("primitive set elements must be positive integers")
        if elems[0] != 1:
            raise ValueError("a primitive set always contains 1")
        self.elements = elems

    def without_one(self) -> tuple[int, ...]:
        return self.elements[1:]

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, item) -> bool:
        return item in self.elements

    def __eq__(self, other) -> bool:
        if isinstance(other, ReferencePrimitiveSet):
            return self.elements == other.elements
        return NotImplemented

    def __lt__(self, other: "ReferencePrimitiveSet") -> bool:
        return self.elements < other.elements

    def __hash__(self) -> int:
        return hash(self.elements)

    def __str__(self) -> str:
        return "{" + ",".join(map(str, self.elements)) + "}"

    def __repr__(self) -> str:
        return f"PrimitiveSet({list(self.elements)!r})"


def primitive_set(x) -> ReferencePrimitiveSet:
    """The set {m / gcd(m, d)} over the differences d of the residue set x,
    built afresh on every call."""
    m = x.modulus
    prims = {1}
    for a, b in combinations(x.elements, 2):
        prims.add(m // gcd(m, b - a))
    return ReferencePrimitiveSet(prims)
