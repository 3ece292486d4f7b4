"""Paper results and cross-checks that sit beside the exact decision core.

Each of these decides, or certifies, the same question as
``hadamard.is_hadamard_exact`` from another direction, and the tests and
the oracle sweeps compare them with it:

- an independent floating-point check that sums H*H entry by entry;
- a sufficient-condition certificate built from a tiling complement of K,
  with a deterministic search for such a complement;
- closed-form tests for the 2x2 and 3x3 cases, phrased as p-adic balance
  conditions on the primitive sets.

This module depends on the core, and the core reaches back in one place
only: ``hadamard.is_hadamard`` imports the 2x2 and 3x3 closed forms when it
decides a selection of that size, because their witnesses explain the
verdict.  Every other decision runs without loading this module.
"""

from __future__ import annotations

import cmath
from collections.abc import Iterator
from functools import lru_cache
from math import gcd, inf, lcm
from operator import mul

from .hadamard import Decision, SubmatrixSpec, SubmatrixVerdict, _cyclotomic_divides
from .numtheory import folded_extremes, modulus_context
from .primsets import PrimitiveSet, ResidueSet, primitive_set

__all__ = [
    "is_hadamard_numeric",
    "certify_by_complement",
    "find_complement",
    "decide_2x2_power_of_two",
    "decide_2x2_twice_prime",
    "decide_2x2_general",
    "decide_3x3",
]


# find_complement keeps one flag per residue (8 MB at this bound)
MAX_COMPLEMENT_MODULUS = 10**6


def is_hadamard_numeric(spec: SubmatrixSpec, tol: float = 1e-9) -> SubmatrixVerdict:
    """Floating-point cross-check: whether H*H, which is Hermitian, is within
    a finite tol > 0 of n times the identity in max norm on its upper triangle.

    Exists only to validate the exact oracle from an independent direction.
    """
    if not 0 < tol < inf:
        raise ValueError(f"tolerance must be positive and finite, got {tol}")
    n = len(spec.j)
    m = spec.m
    # j*k mod m in Python integers, so the phase is exact before it is a float
    columns = [[cmath.exp(2j * cmath.pi * (a * b % m) / m) for a in spec.j.elements]
               for b in spec.k.elements]
    dev = 0.0
    for p, col in enumerate(columns):
        conj = [z.conjugate() for z in col]
        for q in range(p, n):
            dev = max(dev, abs(sum(map(mul, conj, columns[q])) - (n if q == p else 0)))
    decision = Decision.HADAMARD if dev < tol else Decision.NOT_HADAMARD
    return SubmatrixVerdict(decision, "numeric", {"kind": "gram", "deviation": dev})


def certify_by_complement(j: ResidueSet, k: ResidueSet, a) -> Decision:
    """Certify Hadamard-ness from a tiling complement a of k.

    Requires k + a (all sums) to hit every residue class mod m exactly once;
    anything else is a caller error, not an inconclusive answer.  If no
    cyclotomic over the primitive set of j divides A(z), the vanishing sums
    that make the full Fourier matrix orthogonal must come from K(z), so the
    submatrix is Hadamard.  A divisible A(z) proves nothing either way.
    """
    if j.modulus != k.modulus:
        raise ValueError("row and column sets must share a modulus")
    if len(j) != len(k):
        raise ValueError("row and column sets must have equal size")
    m = j.modulus
    a_list = list(a)
    a_elems = tuple(sorted(set(a_list)))
    if not a_elems:
        raise ValueError("complement must be nonempty")
    if a_elems[0] < 0:
        raise ValueError("complement elements must be nonnegative")
    if len(a_elems) != len(a_list):
        raise ValueError("complement has repeated elements")
    # a tiling needs |k| * |a| = m; checked first, so a huge m allocates nothing
    if len(k) * len(a_elems) != m:
        raise ValueError("k + a is not a complete residue system mod m")
    seen = [0] * m
    for ke in k.elements:
        for ae in a_elems:
            seen[(ke + ae) % m] += 1
    if any(count != 1 for count in seen):
        raise ValueError("k + a is not a complete residue system mod m")
    ctx = modulus_context(m)
    for s in primitive_set(j).without_one():
        if _cyclotomic_divides(s, a_elems, ctx.primes_of(s)):
            return Decision.INCONCLUSIVE
    return Decision.HADAMARD


def find_complement(k: ResidueSet) -> set[int] | None:
    """Search for a tiling complement: a set A with k + A covering every
    residue class mod m exactly once.

    Backtracking that always extends at the smallest uncovered residue and
    tries candidate elements in increasing order, so the result is
    deterministic.  The search keeps an explicit stack, so its depth m/|k|
    is not bounded by the interpreter's recursion limit.  Returns None when
    |k| does not divide m or no complement exists; absence is a normal
    outcome.  It keeps one flag per residue, so an m above
    MAX_COMPLEMENT_MODULUS raises ValueError before anything is allocated.
    """
    m = k.modulus
    if m > MAX_COMPLEMENT_MODULUS:
        raise ValueError(
            f"find_complement keeps one flag per residue; m = {m} exceeds "
            f"the limit of {MAX_COMPLEMENT_MODULUS}"
        )
    if m % len(k):
        return None
    covered = [False] * m
    chosen: list[int] = []

    def level(start: int) -> tuple[int, Iterator[int]]:
        # the smallest uncovered residue, found from start on, and the
        # candidates that cover it
        r = covered.index(False, start)
        return r, iter(sorted({(r - ke) % m for ke in k.elements}))

    def cells(a: int) -> list[int]:
        return [(ke + a) % m for ke in k.elements]

    # one (target, untried candidates) per level of the search; every
    # residue below a level's target is covered, so the next level's
    # search starts past it
    stack = [level(0)]
    while stack:
        r, untried = stack[-1]
        for a in untried:
            new = cells(a)
            if not any(covered[c] for c in new):
                break
        else:
            stack.pop()
            if chosen:
                for c in cells(chosen.pop()):
                    covered[c] = False
            continue
        for c in new:
            covered[c] = True
        chosen.append(a)
        # every choice covers |k| fresh residues
        if len(chosen) * len(k) == m:
            return set(chosen)
        stack.append(level(r + 1))
    return None


def _require_primitive_sets(m: int, n: int, *sets: PrimitiveSet) -> None:
    """Reject sets that no n-element selection mod m, n >= 2, has as its
    primitive set: each element must divide m, and 1 plus one order per
    pair of rows make 2 to C(n,2) + 1 elements (exactly 2 when n = 2)."""
    for prims in sets:
        if any(m % s for s in prims):
            raise ValueError(f"{prims} has elements not dividing m={m}")
        if not 2 <= len(prims) <= n * (n - 1) // 2 + 1:
            raise ValueError(f"{prims} is not the primitive set of a {n}-element selection")


def decide_2x2_power_of_two(m: int, pj: PrimitiveSet, pk: PrimitiveSet) -> SubmatrixVerdict:
    """Closed form for 2x2 selections from the m-point Fourier matrix,
    m = 2^q >= 2, on their primitive sets pj and pk.

    Both primitive sets are {1, 2^a}; the pair is Hadamard exactly when the
    two exponents add up to q + 1.
    """
    if m < 2 or m & (m - 1):
        raise ValueError(f"{m} is not a power of two >= 2")
    _require_primitive_sets(m, 2, pj, pk)
    q = m.bit_length() - 1
    (sj,) = pj.without_one()
    (sk,) = pk.without_one()
    aj = sj.bit_length() - 1
    ak = sk.bit_length() - 1
    witness = {"kind": "pow2-exponents", "exponents": (aj, ak), "required_sum": q + 1}
    if aj + ak == q + 1:
        return SubmatrixVerdict(Decision.HADAMARD, "2by2-power-of-two", witness)
    return SubmatrixVerdict(Decision.NOT_HADAMARD, "2by2-power-of-two", witness)


def decide_2x2_twice_prime(m: int, pj: PrimitiveSet, pk: PrimitiveSet) -> SubmatrixVerdict:
    """Closed form for 2x2 selections from the m-point Fourier matrix, m = 2p
    with p an odd prime, on their primitive sets pj and pk: the only Hadamard
    pairings are ({1,2},{1,2}) and {1,2} with {1,2p} in either order.
    """
    p = m // 2
    if m % 2 or p < 3 or modulus_context(m).factorization != ((2, 1), (p, 1)):
        raise ValueError(f"{m} is not twice an odd prime")
    _require_primitive_sets(m, 2, pj, pk)
    two = PrimitiveSet((1, 2))
    twop = PrimitiveSet((1, m))
    good = (pj, pk) in {(two, two), (two, twop), (twop, two)}
    witness = {"kind": "pair", "pj": pj.elements, "pk": pk.elements}
    decision = Decision.HADAMARD if good else Decision.NOT_HADAMARD
    return SubmatrixVerdict(decision, "2by2-twice-prime", witness)


# The oracle sweeps pair every primitive set of a modulus with every other,
# so a sweep pass needs few profiles for its closed-form calls (`fhad verify
# all`: 282 for 1,966 calls); the bound keeps the memo's size flat on any input.
@lru_cache(maxsize=4096)
def _adic_profile(
    m: int, p: int, prims: PrimitiveSet
) -> tuple[tuple[tuple[int, int, int], ...], tuple[int, int, int]]:
    """The p-adic profile of prims minus {1} that the p-by-p balance test
    reads: (r, ord_r(m), max ord_r) for each prime r != p of m, ascending,
    and (ord_p(m), min ord_p, max ord_p), read off one gcd/lcm fold of the
    set at the primes of m's context, so a miss runs no trial division.

    Validates prims as the primitive set of a p-element selection mod m
    first.  lru_cache stores no exception, so invalid input raises on every
    call; p is part of the key, so a set accepted for one size is checked
    afresh for the other.
    """
    _require_primitive_sets(m, p, prims)
    s = prims.without_one()
    g, l = gcd(*s), lcm(*s)
    orders = dict(modulus_context(m).factorization)
    others = tuple((r, e, folded_extremes(r, g, l)[1]) for r, e in orders.items() if r != p)
    return others, (orders.get(p, 0), *folded_extremes(p, g, l))


def _balance_verdict(
    m: int, pj: PrimitiveSet, pk: PrimitiveSet, p: int, rule: str
) -> SubmatrixVerdict:
    """Shared p-adic balance test behind the p-by-p characterizations,
    p = 2 or 3, on the primitive sets pj and pk of the rows and the columns.

    Hadamard iff, over the primitive sets minus {1}: p's minimum and maximum
    orders both sum to ord_p(m) + 1, and every other prime dividing m has
    maximum orders summing to at most its order in m.  The orders of each
    side come from ``_adic_profile``, memoized per (m, p, primitive set) with
    at most 4096 entries, which reads m's factorization from m's context;
    both sets are validated on every call.
    """
    others_j, (order, lo_j, hi_j) = _adic_profile(m, p, pj)
    others_k, (_, lo_k, hi_k) = _adic_profile(m, p, pk)
    for (r, e, hj), (_, _, hk) in zip(others_j, others_k):
        if hj + hk > e:
            witness = {"kind": "excess", "prime": r, "max_sum": hj + hk, "limit": e}
            return SubmatrixVerdict(Decision.NOT_HADAMARD, rule, witness)
    required = order + 1
    if not (lo_j + lo_k == hi_j + hi_k == required):
        witness = {
            "kind": "balance",
            "prime": p,
            "min_sum": lo_j + lo_k,
            "max_sum": hi_j + hi_k,
            "required": required,
        }
        return SubmatrixVerdict(Decision.NOT_HADAMARD, rule, witness)
    return SubmatrixVerdict(Decision.HADAMARD, rule)


def decide_2x2_general(m: int, pj: PrimitiveSet, pk: PrimitiveSet) -> SubmatrixVerdict:
    """2x2 test for any modulus m on primitive sets pj and pk: 2-adic orders
    must balance to ord_2(m) + 1 and no odd prime may overshoot its order in m.

    Each set's orders are memoized per (m, 2, set), at most 4096 entries;
    the sets are validated on every call.
    """
    return _balance_verdict(m, pj, pk, 2, "gen2by2")


def decide_3x3(m: int, pj: PrimitiveSet, pk: PrimitiveSet) -> SubmatrixVerdict:
    """3x3 test for any modulus m on primitive sets pj and pk: 3-adic orders
    must balance to ord_3(m) + 1 and no other prime may overshoot its order.

    Each set's orders are memoized per (m, 3, set), at most 4096 entries;
    the sets are validated on every call.
    """
    return _balance_verdict(m, pj, pk, 3, "3by3")
