"""Dense polynomial reference for the sparse vanishing test.

``fourier_hadamard`` decides whether the s-th cyclotomic polynomial divides
K(z) without building either polynomial.  This module keeps the dense way
as the independent reference the tests compare it with: integer polynomials
(``IntPoly``), the cyclotomic polynomial from the product formula
Phi_r(z) = prod over d | r of (1 - z^d)^mu(r/d), r = rad(s), and
Phi_s(z) = Phi_r(z^(s/r)) (Lang, *Algebra*, VI 3), monic long division
(``poly_divides``) and the 0/1 polynomial of a column set
(``set_polynomial``).
"""

from __future__ import annotations

from math import prod

from fourier_hadamard.numtheory import factorize
from fourier_hadamard.primsets import ResidueSet


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


def poly_divides(d: IntPoly, f: IntPoly) -> bool:
    """Whether f = d * q for some integer polynomial q (d must be monic)."""
    if not d:
        raise ValueError("the zero polynomial divides nothing")
    if not f:
        return True
    _, rem = f.divmod_monic(d)
    return not rem


def set_polynomial(x: ResidueSet | tuple[int, ...]) -> IntPoly:
    """The polynomial with a coefficient 1 at z^e for every exponent e of x,
    a ``ResidueSet`` or a tuple of distinct nonnegative exponents."""
    exponents = x.elements if isinstance(x, ResidueSet) else x
    coeffs = [0] * (max(exponents) + 1)
    for e in exponents:
        coeffs[e] = 1
    return IntPoly(coeffs)
