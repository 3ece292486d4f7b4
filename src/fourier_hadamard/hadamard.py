"""Decision procedures for Hadamard submatrices of Fourier matrices.

A selection of rows J and columns K of the m-by-m Fourier matrix
(entries e^(2*pi*i*j*k/m)) forms a complex Hadamard submatrix exactly when
the matrix is square and its rows are orthogonal.  Two distinct rows j1, j2
are orthogonal iff the column polynomial K(z) = sum of z^k vanishes at
e^(2*pi*i*(j1-j2)/m), a primitive s-th root of unity for
s = m/gcd(m, j1-j2); vanishing there is equivalent to the s-th cyclotomic
polynomial dividing K(z).  The exact oracle below is nothing more than that
vanishing test over the primitive set of J.  The test never builds a
polynomial: it splits the exponents of K by residue classes, one prime of s
at a time (the constructive side of the Redei-de Bruijn-Schoenberg
theorem), so every decision is pure integer arithmetic on |K| exponents.

Alongside the oracle: an independent floating-point cross-check, two
necessary-condition screens that can rule a row set out without any K, a
sufficient-condition certificate built from a tiling complement of K, and
closed-form tests for the 2x2 and 3x3 cases phrased as p-adic balance
conditions on the primitive sets.
"""

from __future__ import annotations

import cmath
from collections.abc import Iterator
from enum import Enum
from functools import lru_cache
from math import inf, prod
from operator import mul

from .numtheory import modulus_context, p_adic_extremes
from .primsets import PrimitiveSet, Record, ResidueSet, primitive_set, size_divisor

__all__ = [
    "Decision",
    "Screen",
    "SubmatrixSpec",
    "SubmatrixVerdict",
    "RULES",
    "vanishing_set",
    "is_hadamard_exact",
    "is_hadamard_numeric",
    "is_hadamard",
    "screen_size_divisor",
    "screen_prime_powers",
    "certify_by_complement",
    "find_complement",
    "decide_2x2_power_of_two",
    "decide_2x2_twice_prime",
    "decide_2x2_general",
    "decide_3x3",
]


# find_complement keeps one flag per residue (8 MB at this bound)
MAX_COMPLEMENT_MODULUS = 10**6


class Decision(Enum):
    HADAMARD = "hadamard"
    NOT_HADAMARD = "not-hadamard"
    INCONCLUSIVE = "inconclusive"


class Screen(Enum):
    """Outcome of a necessary-condition test that needs no column set."""

    RULED_OUT = "ruled-out"
    INCONCLUSIVE = "inconclusive"


# Registry of implemented decision rules; every verdict names one of these.
RULES = (
    "exact",
    "numeric",
    "2by2-power-of-two",
    "2by2-twice-prime",
    "gen2by2",
    "3by3",
)


class SubmatrixSpec(Record):
    """Rows j and columns k selected from the m-by-m Fourier matrix.

    Only square selections can be Hadamard, so construction rejects a row
    set and a column set of different sizes.
    """

    __slots__ = ("m", "j", "k")

    def __init__(self, m: int, j: ResidueSet, k: ResidueSet):
        if j.modulus != m or k.modulus != m:
            raise ValueError("row and column sets must share the spec's modulus")
        if len(j) != len(k):
            raise ValueError(
                f"row set has {len(j)} elements but column set has {len(k)}; "
                "Hadamard submatrices are square"
            )
        _set = object.__setattr__
        _set(self, "m", m)
        _set(self, "j", j)
        _set(self, "k", k)

    @classmethod
    def of(cls, m: int, j_elements, k_elements) -> "SubmatrixSpec":
        return cls(m, ResidueSet(m, tuple(j_elements)), ResidueSet(m, tuple(k_elements)))


class SubmatrixVerdict(Record):
    """Decision plus the rule that produced it and optional witness data."""

    __slots__ = ("decision", "rule", "witness")

    def __init__(self, decision: Decision, rule: str, witness: dict | None = None):
        if rule not in RULES:
            raise ValueError(f"unknown rule {rule!r}")
        _set = object.__setattr__
        _set(self, "decision", decision)
        _set(self, "rule", rule)
        _set(self, "witness", witness)


# bounded so long-lived processes stay flat; `fhad verify all` fills ~11k of it
@lru_cache(maxsize=1 << 14)
def _cyclotomic_divides(s: int, exponents: tuple[int, ...], primes: tuple[int, ...]) -> bool:
    """Whether the s-th cyclotomic polynomial divides the sum of z^e over
    the exponents, that is whether the sum vanishes at zeta_s = e^(2*pi*i/s).
    primes are the distinct primes of s, ascending; callers read them from
    the context of a modulus s divides, so s itself is never factorized.

    Exponents may exceed s, come in any order and repeat; a repeated
    exponent counts once per occurrence.  With r = rad(s) and t = s/r,
    zeta_s^t = zeta_r and 1, zeta_s, ..., zeta_s^(t-1) are a basis of
    Q(zeta_s) over Q(zeta_r), so the sum vanishes iff, in every class of
    exponents mod t, the terms zeta_r^(e div t) add up to 0 (e div t need
    not be below r: the split by primes reduces it).  No polynomial
    is built; the cost depends on the number of exponents and of primes of
    s, not on s.
    """
    t = s // prod(primes)
    classes: dict[int, dict[int, int]] = {}
    for e in exponents:
        terms = classes.setdefault(e % t, {})
        terms[e // t] = terms.get(e // t, 0) + 1
    return all(_root_sum_vanishes(terms, primes) for terms in classes.values())


def _root_sum_vanishes(terms: dict[int, int], primes: tuple[int, ...]) -> bool:
    """Whether the sum of c * zeta_r^a over the terms {a: c} is 0, for r the
    product of the distinct primes given (r = 1: the sum of the c).

    Peel off the largest prime p and let q = r/p.  By the Chinese remainder
    theorem zeta_r^a is zeta_p^(a mod p) times zeta_q^(a mod q), up to Galois
    automorphisms that change neither equality nor vanishing.  So the sum is
    sum over alpha of zeta_p^alpha * S_alpha with every S_alpha in
    Q(zeta_q), and because 1 + x + ... + x^(p-1) stays irreducible over
    Q(zeta_q) it vanishes iff all p of the S_alpha are equal (de Bruijn 1953;
    Lam and Leung, J. Algebra 224, 2000).  An empty group makes that common
    value 0, so then each group must vanish on its own; otherwise each group
    must equal the smallest one.
    """
    if not primes:
        return sum(terms.values()) == 0
    rest, p = primes[:-1], primes[-1]
    q = prod(rest)
    groups: dict[int, dict[int, int]] = {}
    for a, c in terms.items():
        group = groups.setdefault(a % p, {})
        group[a % q] = group.get(a % q, 0) + c
    if len(groups) < p:
        return all(_root_sum_vanishes(group, rest) for group in groups.values())
    least = min(groups.values(), key=len)
    for group in groups.values():
        diff = dict(group)
        for b, c in least.items():
            diff[b] = diff.get(b, 0) - c
        if not _root_sum_vanishes({b: c for b, c in diff.items() if c}, rest):
            return False
    return True


def vanishing_set(k: ResidueSet) -> frozenset[int]:
    """Z(K): the orders s > 1 dividing the modulus m for which the s-th
    cyclotomic polynomial divides K(z), i.e. K(z) vanishes at the primitive
    s-th roots of unity, each decided by the sparse vanishing test on K's
    exponents.

    This is the exact oracle in set form: with P(J) the primitive set of a
    row set of the same size, H_(J,K) is Hadamard iff P(J) minus {1} is a
    subset of Z(K).  Computing Z(K) once lets every row set be tested
    against K by one set inclusion.  The divisors of m and their primes come
    from m's context.
    """
    ctx = modulus_context(k.modulus)
    return frozenset(
        s
        for s in ctx.divisors[1:]
        if _cyclotomic_divides(s, k.elements, ctx.primes_of(s))
    )


def is_hadamard_exact(spec: SubmatrixSpec) -> SubmatrixVerdict:
    """Exact oracle: Hadamard iff the s-th cyclotomic polynomial divides the
    column polynomial for every s > 1 in the primitive set of the rows.

    Each divisibility is the sparse vanishing test on K's exponents: no
    polynomial is built, and apart from factorizing m once per context
    the cost does not grow with m.  Never inconclusive.  On failure the
    witness carries the first s whose cyclotomic does not divide K(z).
    """
    ctx = modulus_context(spec.m)
    for s in primitive_set(spec.j).without_one():
        if not _cyclotomic_divides(s, spec.k.elements, ctx.primes_of(s)):
            return SubmatrixVerdict(
                Decision.NOT_HADAMARD,
                "exact",
                {"kind": "cyclotomic", "s": s},
            )
    return SubmatrixVerdict(Decision.HADAMARD, "exact")


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


def screen_size_divisor(prims: PrimitiveSet, n: int) -> Screen:
    """Rule out row sets with primitive set prims when its size divisor does
    not divide n.

    An n-by-n Hadamard submatrix with these rows forces every cyclotomic
    over prims to divide K(z), so evaluating at 1 forces the size divisor to
    divide n = K(1).  No column set can work when it fails.
    """
    return Screen.RULED_OUT if n % size_divisor(prims) else Screen.INCONCLUSIVE


def screen_prime_powers(m: int, prims: PrimitiveSet) -> Screen:
    """Rule out row sets mod m whose primitive set holds every prime-power
    divisor of m yet misses some divisor of m.

    In that case the size divisor equals m, forcing the row set to be all of
    {0..m-1}, whose primitive set has every divisor; the gap is a
    contradiction.  Elements that do not divide m raise ValueError.
    """
    if any(m % s for s in prims):
        raise ValueError(f"{prims} has elements not dividing m={m}")
    ctx = modulus_context(m)
    prime_powers = [p**t for p, e in ctx.factorization for t in range(1, e + 1)]
    if all(q in prims for q in prime_powers) and any(
        d not in prims for d in ctx.divisors
    ):
        return Screen.RULED_OUT
    return Screen.INCONCLUSIVE


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
# so a whole sweep pass needs a few hundred profiles for its ~10^5
# closed-form calls; the bound keeps the memo's size flat on any input.
@lru_cache(maxsize=4096)
def _adic_profile(
    m: int, p: int, prims: PrimitiveSet
) -> tuple[tuple[tuple[int, int, int], ...], tuple[int, int, int]]:
    """The p-adic profile of prims minus {1} that the p-by-p balance test
    reads: (r, ord_r(m), max ord_r) for each prime r != p of m, ascending,
    and (ord_p(m), min ord_p, max ord_p).  m's factorization comes from its
    context, so a miss for a new set does not factorize m again.

    Validates prims as the primitive set of a p-element selection mod m
    first.  lru_cache stores no exception, so invalid input raises on every
    call; p is part of the key, so a set accepted for one size is checked
    afresh for the other.
    """
    _require_primitive_sets(m, p, prims)
    s = prims.without_one()
    orders = dict(modulus_context(m).factorization)
    others = tuple((r, e, p_adic_extremes(r, s)[1]) for r, e in orders.items() if r != p)
    return others, (orders.get(p, 0), *p_adic_extremes(p, s))


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


def is_hadamard(spec: SubmatrixSpec) -> SubmatrixVerdict:
    """Decide with the rule that explains the verdict for the selection size.

    2x2 and 3x3 go to their closed-form tests, on P(J) and P(K) computed
    here, because their witnesses name the failing p-adic condition, which
    ``fhad test`` prints; the choice is for the explanation, not for speed.
    Every other size goes to the exact oracle.  All routes agree with the
    exact oracle; the sweep suites check that rather than assume it.
    """
    n = len(spec.j)
    if n in (2, 3):
        decide = decide_2x2_general if n == 2 else decide_3x3
        return decide(spec.m, primitive_set(spec.j), primitive_set(spec.k))
    return is_hadamard_exact(spec)
