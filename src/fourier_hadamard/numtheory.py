"""Exact elementary number theory over plain Python integers.

Factorization, divisor lists, p-adic orders, and cyclotomic polynomials.
Everything stays in arbitrary-precision integer arithmetic; no floating
point enters any decision made downstream.

Cyclotomic polynomials come from one product formula (Lang, *Algebra*,
VI 3): with r = rad(s) the product of the distinct primes of s,
Phi_r(z) = prod over d | r of (1 - z^d)^mu(r/d), and Phi_s(z) = Phi_r(z^(s/r)).
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, prod

__all__ = [
    "IntPoly",
    "gcd",
    "factorize",
    "divisors",
    "p_adic_order",
    "p_adic_extremes",
    "cyclotomic",
    "cyclotomic_at_one",
    "poly_divides",
]


class IntPoly:
    """Dense integer polynomial; ``coeffs[i]`` is the coefficient of z^i.

    The zero polynomial is stored as an empty tuple; otherwise the trailing
    coefficient is nonzero.  Instances are immutable values.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, IntPoly):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __mul__(self, other: "IntPoly") -> "IntPoly":
        if not isinstance(other, IntPoly):
            return NotImplemented
        if not self or not other:
            return IntPoly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPoly(out)

    def __call__(self, x: int) -> int:
        """Evaluate at an integer by Horner's rule (exact)."""
        y = 0
        for c in reversed(self.coeffs):
            y = y * x + c
        return y

    def divmod_monic(self, divisor: "IntPoly") -> tuple["IntPoly", "IntPoly"]:
        """Quotient and remainder for a monic divisor.

        Synthetic division keeps every intermediate value an integer, which
        is only valid when the divisor's leading coefficient is 1; anything
        else is a contract violation, not a fallback case.
        """
        if not divisor:
            raise ValueError("division by the zero polynomial")
        if divisor.coeffs[-1] != 1:
            raise ValueError("divisor must be monic")
        dd = divisor.degree
        if self.degree < dd:
            return IntPoly(), self
        rem = list(self.coeffs)
        quot = [0] * (self.degree - dd + 1)
        for i in range(self.degree - dd, -1, -1):
            c = rem[i + dd]
            if c:
                quot[i] = c
                for j, b in enumerate(divisor.coeffs):
                    rem[i + j] -= c * b
        return IntPoly(quot), IntPoly(rem[:dd])

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if i == 0:
                term = str(mag)
            elif i == 1:
                term = "z" if mag == 1 else f"{mag}*z"
            else:
                term = f"z^{i}" if mag == 1 else f"{mag}*z^{i}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f" {sign} {term}")
        return "".join(parts)

    def __repr__(self) -> str:
        return f"IntPoly({list(self.coeffs)!r})"


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
    """All positive divisors of m, ascending."""
    divs = [1]
    for p, e in factorize(m):
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


# p_adic_extremes checks primality on every call, usually for the same few
# primes; the bound stays above the 669 primes below 5000 that the compprop
# sweep's sample moduli can have.
@lru_cache(maxsize=1024)
def _is_prime(p: int) -> bool:
    return p >= 2 and factorize(p) == [(p, 1)]


def p_adic_order(p: int, n: int) -> int:
    """Largest v with p^v dividing n; sign of n is ignored.

    n = 0 is rejected: no finite order exists.
    """
    return p_adic_extremes(p, (n,))[0]


def p_adic_extremes(p: int, xs) -> tuple[int, int]:
    """(min, max) of the p-adic order over a nonempty set of nonzero integers.

    Every call rejects a p that is not prime with ValueError; only the
    factorization behind that check is memoized, once per p.
    """
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    orders = []
    for n in xs:
        if n == 0:
            raise ValueError("p-adic order of 0 is undefined")
        n = abs(n)
        v = 0
        while n % p == 0:
            n //= p
            v += 1
        orders.append(v)
    if not orders:
        raise ValueError("p_adic_extremes needs a nonempty set")
    return min(orders), max(orders)


def cyclotomic(s: int) -> IntPoly:
    """The s-th cyclotomic polynomial, exact integer coefficients.

    Phi_1 = z - 1.  For s > 1, with r = rad(s), Phi_r is the product of
    (1 - z^d)^mu(r/d) over the divisors d of r, taken as a power series cut
    at degree phi(r): each factor is one in-place pass over the coefficients,
    a multiplication by 1 - z^d running down or a division by it running up.
    Then Phi_s(z) = Phi_r(z^(s/r)).
    """
    if s < 1:
        raise ValueError(f"cyclotomic index must be positive, got {s}")
    if s == 1:
        return IntPoly([-1, 1])  # the product formula would give 1 - z
    primes = [p for p, _ in factorize(s)]
    r = prod(primes)
    n = prod(p - 1 for p in primes)  # phi(r), the degree of Phi_r
    factors = [(r, 1)]  # (d, mu(r/d)) for every divisor d of r
    for p in primes:
        factors += [(d // p, -mu) for d, mu in factors]
    coeffs = [1] + [0] * n
    for d, mu in factors:
        if mu > 0:
            for i in range(n, d - 1, -1):
                coeffs[i] -= coeffs[i - d]
        else:
            for i in range(d, n + 1):
                coeffs[i] += coeffs[i - d]
    return _substitute_power(IntPoly(coeffs), s // r)


def _substitute_power(f: IntPoly, t: int) -> IntPoly:
    """f(z^t): coefficient i of f moves to z^(i*t)."""
    coeffs = [0] * (f.degree * t + 1)
    coeffs[::t] = f.coeffs
    return IntPoly(coeffs)


def cyclotomic_at_one(s: int) -> int:
    """Value of the s-th cyclotomic polynomial at 1, via the factorization of s.

    0 for s = 1, p for a prime power p^a, and 1 otherwise.  Never evaluates
    the polynomial itself.
    """
    if s < 1:
        raise ValueError(f"cyclotomic index must be positive, got {s}")
    if s == 1:
        return 0
    facts = factorize(s)
    if len(facts) == 1:
        return facts[0][0]
    return 1


def poly_divides(d: IntPoly, f: IntPoly) -> bool:
    """Whether f = d * q for some integer polynomial q (d must be monic)."""
    if not d:
        raise ValueError("the zero polynomial divides nothing")
    if not f:
        return True
    _, rem = f.divmod_monic(d)
    return not rem
