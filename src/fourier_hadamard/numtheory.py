"""Exact elementary number theory over plain Python integers.

Factorization, divisor lists, p-adic orders, and the value of a cyclotomic
polynomial at 1, plus one memoized context per modulus that computes each
of these facts about m at most once.  Everything stays in
arbitrary-precision integer arithmetic; no floating point enters any
decision made downstream.  No polynomial is ever built: whether a
cyclotomic polynomial divides a column polynomial is decided from the
exponents alone, in ``hadamard``.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from math import gcd, lcm

__all__ = [
    "gcd",
    "factorize",
    "divisors",
    "p_adic_order",
    "p_adic_extremes",
    "folded_extremes",
    "cyclotomic_at_one",
    "is_prime_sum",
    "ModulusContext",
    "modulus_context",
]


def factorize(m: int) -> list[tuple[int, int]]:
    """Prime factorization of m >= 1 as (prime, exponent) pairs, ascending.

    Trial division; inputs here are desk scale.
    """
    if m < 1:
        raise ValueError(f"factorize expects a positive integer, got {m}")
    out = []
    for p in (2, 3):
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        if e:
            out.append((p, e))
    d = 5
    while d * d <= m:
        e = 0
        while m % d == 0:
            m //= d
            e += 1
        if e:
            out.append((d, e))
        # candidates 6k +/- 1
        d += 2 if d % 6 == 5 else 4
    if m > 1:
        out.append((m, 1))
    return out


def divisors(m: int) -> list[int]:
    """All positive divisors of m, ascending; m is factorized once per
    context (see ``modulus_context``)."""
    return list(modulus_context(m).divisors)


def _is_prime(p: int) -> bool:
    return p >= 2 and factorize(p) == [(p, 1)]


def p_adic_order(p: int, n: int) -> int:
    """Largest v with p^v dividing n; sign of n is ignored.

    n = 0 is rejected: no finite order exists.
    """
    return p_adic_extremes(p, (n,))[0]


def p_adic_extremes(p: int, xs) -> tuple[int, int]:
    """(min, max) of the p-adic order over a nonempty set of nonzero integers.

    Every call rejects a p that is not prime with ValueError.  The extremes
    are read off one gcd and one lcm of xs (``folded_extremes``).
    """
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    xs = tuple(xs)
    if 0 in xs:
        raise ValueError("p-adic order of 0 is undefined")
    if not xs:
        raise ValueError("p_adic_extremes needs a nonempty set")
    return folded_extremes(p, gcd(*xs), lcm(*xs))


def folded_extremes(p: int, g: int, l: int) -> tuple[int, int]:
    """(min, max) of the p-adic order over nonzero integers whose gcd is g
    and whose lcm is l, for a prime p.

    ord_p(gcd(a, b)) = min(ord_p(a), ord_p(b)) and ord_p(lcm(a, b)) =
    max(ord_p(a), ord_p(b)), so the least order is the order of the gcd
    and the greatest the order of the lcm.  One fold of a set with
    ``math.gcd`` and one with ``math.lcm`` hold its extremes for every
    prime at once.  p < 2 and a zero g or l, which have no finite order,
    raise ValueError; whether p >= 2 is prime is not checked.
    """
    if p < 2 or not g or not l:
        raise ValueError(f"no finite {p}-adic order for gcd {g} and lcm {l}")
    lo = hi = 0
    while g % p == 0:
        g //= p
        lo += 1
    while l % p == 0:
        l //= p
        hi += 1
    return lo, hi


def cyclotomic_at_one(s: int) -> int:
    """Value of the s-th cyclotomic polynomial at 1, via the factorization of s.

    0 for s = 1, p for a prime power p^a, and 1 otherwise.  Never evaluates
    the polynomial itself.
    """
    if s < 1:
        raise ValueError(f"cyclotomic index must be positive, got {s}")
    if s == 1:
        return 0
    primes = modulus_context(s).primes
    return primes[0] if len(primes) == 1 else 1


def is_prime_sum(w: int, primes: tuple[int, ...]) -> bool:
    """Whether w >= 0 is a sum of the given primes, each taken any number of
    times (0 is the empty sum).

    Lam and Leung (J. Algebra 224, 2000): a sum of w s-th roots of unity,
    repeats allowed, can vanish only if w is such a sum of the primes of s.
    """
    within = (1 << (w + 1)) - 1
    sums = 1  # bit v is set when v is a sum
    for p in primes:
        # shifting by p, 2p, 4p, ... adds every multiple of p up to w
        step = p
        while step <= w:
            sums = (sums | sums << step) & within
            step <<= 1
    return bool(sums >> w & 1)


class ModulusContext:
    """What the package computes about one modulus m, each part on first use.

    - ``factorization``, ``primes`` and ``divisors`` are factorized from m
      the first time any of them is read, and never before.
    - ``bit`` gives each divisor g < m of m one bit of a mask, bit i to the
      i-th smallest, and ``orders`` lists m // g, the order that bit i
      stands for.  The gcds of m with the differences 0 < d < m are
      exactly these g, so a set of such orders is one int, its mask, and
      the layout depends on m alone.
    - ``sum_mask(n)`` masks the orders s at which n is a sum of primes of
      s, once per n: by Lam and Leung the only orders at which n s-th roots
      of unity can add up to 0.  It alone holds that rule, n = 1 included:
      one root never sums to 0, so a singleton never factorizes m.

    Memory is O(divisors of m), plus one mask per n asked.
    """

    def __init__(self, m: int):
        self.m = m
        self._primes_of: dict[int, tuple[int, ...]] = {}
        self._sum_masks: dict[int, int] = {}

    @cached_property
    def bit(self) -> dict[int, int]:
        return {g: 1 << i for i, g in enumerate(self.divisors[:-1])}

    @cached_property
    def orders(self) -> list[int]:
        return [self.m // g for g in self.divisors[:-1]]

    def orders_of(self, mask: int) -> list[int]:
        """The orders whose bits are set in mask, in bit order; the empty
        mask reads no divisor, so it never factorizes m."""
        return [s for i, s in enumerate(self.orders) if mask >> i & 1] if mask else []

    @cached_property
    def factorization(self) -> tuple[tuple[int, int], ...]:
        return tuple(factorize(self.m))

    @cached_property
    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factorization)

    @cached_property
    def divisors(self) -> tuple[int, ...]:
        divs = [1]
        for p, e in self.factorization:
            divs = [d * p**k for d in divs for k in range(e + 1)]
        return tuple(sorted(divs))

    def primes_of(self, s: int) -> tuple[int, ...]:
        """The primes of a divisor s of m, ascending, from m's primes."""
        primes = self._primes_of.get(s)
        if primes is None:
            primes = self._primes_of[s] = tuple(p for p in self.primes if s % p == 0)
        return primes

    def sum_mask(self, n: int) -> int:
        """The mask of the orders s at which n is a sum of primes of s, asked
        once per set of primes (at most 2^omega(m) sets); 1 is no sum of
        primes, so ``sum_mask(1)`` is 0 and reads no divisor."""
        if n not in self._sum_masks:
            primes = [] if n == 1 else list(map(self.primes_of, self.orders))
            sums = {ps: is_prime_sum(n, ps) for ps in set(primes)}
            self._sum_masks[n] = sum(1 << i for i, ps in enumerate(primes) if sums[ps])
        return self._sum_masks[n]


# Sweeps visit a few thousand moduli, and a context costs a few dicts plus
# what it has computed; the bound keeps the memo's size flat on any input.
@lru_cache(maxsize=1024)
def modulus_context(m: int) -> ModulusContext:
    """The shared context of the modulus m, built on first use."""
    return ModulusContext(m)

