"""Decision procedures for Hadamard submatrices of Fourier matrices.

A selection of rows J and columns K of the m-by-m Fourier matrix
(entries e^(2*pi*i*j*k/m)) forms a complex Hadamard submatrix exactly when
the matrix is square and its rows are orthogonal.  Two distinct rows j1, j2
are orthogonal iff the column polynomial K(z) = sum of z^k vanishes at
e^(2*pi*i*(j1-j2)/m), a primitive s-th root of unity for
s = m/gcd(m, j1-j2); vanishing there is equivalent to the s-th cyclotomic
polynomial dividing K(z).  So H_(J,K) is Hadamard exactly when P(J) minus
{1} lies inside Z(K), the orders at which K(z) vanishes.  The one vanishing
test never builds a polynomial: it splits the exponents of K by residue
classes, one prime of s at a time (the constructive side of the Redei-de
Bruijn-Schoenberg theorem), so every decision is pure integer arithmetic on
|K| exponents.  Callers that reuse a modulus test the inclusion as
``prim_mask(J) & ~zero_mask(K)``, masks over every divisor of m; a single
query tests only P(J)'s orders, so it never lists the divisors of m.

Alongside the oracle: the two necessary-condition screens that can rule a
row set out without any K, and the ``is_hadamard`` dispatcher.  This module
is the one exact decision core.  The numeric oracle, the tiling certificate
and the 2x2 and 3x3 closed forms are paper results kept as cross-checks in
``crosschecks``, which the dispatcher loads only for a 2x2 or 3x3
selection.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache
from itertools import combinations
from math import gcd, prod

from .numtheory import ModulusContext, is_prime_sum, modulus_context
from .primsets import PrimitiveSet, Record, ResidueSet, primitive_set, size_divisor

__all__ = [
    "Decision",
    "Screen",
    "SubmatrixSpec",
    "SubmatrixVerdict",
    "RULES",
    "prim_mask",
    "zero_mask",
    "vanishing_set",
    "is_hadamard_exact",
    "is_hadamard",
    "screen_size_divisor",
    "screen_prime_powers",
]


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
        super().__init__(m, j, k)

    @classmethod
    def of(cls, m: int, j_elements, k_elements) -> "SubmatrixSpec":
        return cls(m, ResidueSet(m, tuple(j_elements)), ResidueSet(m, tuple(k_elements)))


class SubmatrixVerdict(Record):
    """Decision plus the rule that produced it and optional witness data."""

    __slots__ = ("decision", "rule", "witness")

    def __init__(self, decision: Decision, rule: str, witness: dict | None = None):
        if rule not in RULES:
            raise ValueError(f"unknown rule {rule!r}")
        super().__init__(decision, rule, witness)


# bounded so long-lived processes stay flat; `fhad verify all` fills 4,371 of it
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
    not be below r: the split by primes reduces it).  A class is a sum of
    as many r-th roots of unity as it has exponents, so by Lam and Leung it
    can vanish only when that weight is a sum of the primes of s; the
    weights add up to |exponents|, so an order at which no sum of that many
    roots vanishes fails here too.  No polynomial is built; the cost
    depends on the number of exponents and of primes of s, not on s.
    """
    t = s // prod(primes)
    classes: dict[int, dict[int, int]] = {}
    for e in exponents:
        terms = classes.setdefault(e % t, {})
        terms[e // t] = terms.get(e // t, 0) + 1
    return all(
        is_prime_sum(sum(terms.values()), primes) and _root_sum_vanishes(terms, primes)
        for terms in classes.values()
    )


def _root_sum_vanishes(terms: dict[int, int], primes: tuple[int, ...]) -> bool:
    """Whether the sum of c * zeta_r^a over the terms {a: c} is 0, for r the
    product of the distinct primes given (r = 1: the sum of the c).

    Peel off the largest prime p and let q = r/p.  By the Chinese remainder
    theorem zeta_r^a is zeta_p^(a mod p) times zeta_q^(a mod q), up to Galois
    automorphisms that change neither equality nor vanishing.  So the sum is
    sum over alpha of zeta_p^alpha * S_alpha with every S_alpha in
    Q(zeta_q), and because 1 + x + ... + x^(p-1) stays irreducible over
    Q(zeta_q) it vanishes iff all p of the S_alpha are equal (de Bruijn 1953;
    Lam and Leung, J. Algebra 224, 2000), so each group minus the smallest
    must vanish.  A class mod p with no term is an empty group, the smallest,
    so then each group must vanish alone, and a lone term never does; the
    singleton rule itself lives in ``ModulusContext.sum_mask``.
    """
    if not primes:
        return sum(terms.values()) == 0
    rest, p = primes[:-1], primes[-1]
    q = prod(rest)
    groups: dict[int, dict[int, int]] = {}
    for a, c in terms.items():
        group = groups.setdefault(a % p, {})
        group[a % q] = group.get(a % q, 0) + c
    least = min(groups.values(), key=len) if len(groups) == p else {}
    for group in groups.values():
        diff = dict(group)
        for b, c in least.items():
            diff[b] = diff.get(b, 0) - c
        if not _root_sum_vanishes({b: c for b, c in diff.items() if c}, rest):
            return False
    return True


def prim_mask(ctx: ModulusContext, elements: tuple[int, ...]) -> int:
    """P(J) minus {1} as a mask over the divisor bits of m's context: the OR
    of ``ctx.bit[gcd(m, b - a)]`` over the pairs of J's distinct residues.
    ``ctx.bit`` is read only for a pair, so a singleton, which has none,
    never factorizes m."""
    m = ctx.m
    mask = 0
    for a, b in combinations(elements, 2):
        mask |= ctx.bit[gcd(m, b - a)]
    return mask


def zero_mask(ctx: ModulusContext, elements: tuple[int, ...]) -> int:
    """Z(K) as a mask over the divisor bits of m's context: the orders s > 1
    of m at which K(z), given by its exponents in ascending order, vanishes,
    i.e. Phi_s divides K(z).  H_(J,K) is Hadamard iff
    ``prim_mask(J) & ~zero_mask(K)`` is 0.  Only the orders of
    ``ctx.sum_mask(|K|)`` are tested: at no other does a sum of |K| roots of
    unity vanish (Lam and Leung), and for |K| = 1 it reads no divisor."""
    mask = 0
    for s in ctx.orders_of(ctx.sum_mask(len(elements))):
        if _cyclotomic_divides(s, elements, ctx.primes_of(s)):
            mask |= ctx.bit[ctx.m // s]
    return mask


def vanishing_set(k: ResidueSet) -> frozenset[int]:
    """Z(K) as a set of orders, read off ``zero_mask``; a one-element K
    reads no divisor, since ``ModulusContext.sum_mask(1)`` is 0."""
    ctx = modulus_context(k.modulus)
    return frozenset(ctx.orders_of(zero_mask(ctx, k.elements)))


def is_hadamard_exact(spec: SubmatrixSpec) -> SubmatrixVerdict:
    """Exact oracle: Hadamard iff the s-th cyclotomic polynomial divides the
    column polynomial for every s > 1 in the primitive set of the rows.

    Each divisibility is the sparse vanishing test on K's exponents, at the
    orders of P(J) alone: no polynomial is built and no divisor of m is
    listed, so apart from factorizing m once per context the cost does not
    grow with m.  Never inconclusive.  On failure the witness carries the
    first s whose cyclotomic does not divide K(z).
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

    Then the size divisor is m, forcing the row set to be all of {0..m-1},
    whose primitive set has every divisor: a contradiction.  Elements that
    do not divide m raise ValueError.  With every element dividing m, prims
    holds every prime power of m iff its size divisor is m, and misses a
    divisor iff it has fewer than d(m) = prod(e + 1) elements; no divisor is
    listed.  m is factorized only when the size divisor is m, so {1}, whose
    size divisor is 1, never factorizes it.
    """
    if any(m % s for s in prims):
        raise ValueError(f"{prims} has elements not dividing m={m}")
    if size_divisor(prims) == m and len(prims) < prod(
        e + 1 for _, e in modulus_context(m).factorization
    ):
        return Screen.RULED_OUT
    return Screen.INCONCLUSIVE


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
        # the closed forms live with the cross-checks and load only here,
        # so a decision at any other size never compiles them
        from .crosschecks import decide_2x2_general, decide_3x3

        decide = decide_2x2_general if n == 2 else decide_3x3
        return decide(spec.m, primitive_set(spec.j), primitive_set(spec.k))
    return is_hadamard_exact(spec)
