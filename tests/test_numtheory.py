import random
from functools import lru_cache
from itertools import product
from math import lcm, prod

import pytest
from hypothesis import given, settings, strategies as st

from fourier_hadamard import numtheory
from fourier_hadamard.numtheory import (
    ModulusContext,
    _is_prime,
    cyclotomic_at_one,
    divisors,
    factorize,
    folded_extremes,
    gcd,
    is_prime_sum,
    p_adic_extremes,
    p_adic_order,
)

import sweep_reference
from dense_reference import IntPoly, cyclotomic, poly_divides


_dense_memo: dict[int, IntPoly] = {}


def _dense_cyclotomic(s):
    """Reference: z^s - 1 divided by the cyclotomic of every proper divisor."""
    if s not in _dense_memo:
        numerator = IntPoly([-1] + [0] * (s - 1) + [1])
        for d in divisors(s)[:-1]:
            numerator, rem = numerator.divmod_monic(_dense_cyclotomic(d))
            assert not rem
        _dense_memo[s] = numerator
    return _dense_memo[s]


def test_gcd_examples():
    assert gcd(6000, 375) == 375
    assert gcd(7, 0) == 7
    assert gcd(0, 0) == 0
    assert gcd(6000, 370) == 10


def test_factorize():
    assert factorize(180) == [(2, 2), (3, 2), (5, 1)]
    assert factorize(1) == []
    assert factorize(6000) == [(2, 4), (3, 1), (5, 3)]
    assert factorize(97) == [(97, 1)]
    with pytest.raises(ValueError):
        factorize(0)


def test_factorize_reconstructs():
    rng = random.Random(1)
    for _ in range(200):
        m = rng.randint(1, 10**6)
        prod = 1
        prev = 0
        for p, e in factorize(m):
            assert p > prev and e >= 1
            prev = p
            prod *= p**e
        assert prod == m


def test_divisors():
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(1) == [1]
    assert divisors(14) == [1, 2, 7, 14]


def test_p_adic_order():
    assert p_adic_order(2, 20) == 2
    assert p_adic_order(2, 18) == 1
    assert p_adic_order(3, -18) == 2
    assert p_adic_order(5, 1) == 0
    with pytest.raises(ValueError):
        p_adic_order(2, 0)
    with pytest.raises(ValueError):
        p_adic_order(4, 12)
    with pytest.raises(ValueError):
        p_adic_order(1, 12)


def test_p_adic_order_multiplicative():
    rng = random.Random(2)
    for _ in range(500):
        p = rng.choice([2, 3, 5, 7, 11])
        a = rng.randint(1, 10**6) * rng.choice([-1, 1])
        b = rng.randint(1, 10**6) * rng.choice([-1, 1])
        assert p_adic_order(p, a * b) == p_adic_order(p, a) + p_adic_order(p, b)


def test_p_adic_extremes():
    assert p_adic_extremes(3, {9, 45}) == (2, 2)
    assert p_adic_extremes(2, {6, 12}) == (1, 2)
    assert p_adic_extremes(7, {1}) == (0, 0)
    with pytest.raises(ValueError):
        p_adic_extremes(3, set())
    with pytest.raises(ValueError):
        p_adic_extremes(3, {0, 9})
    # every call rejects a non-prime, also after calls with primes
    p_adic_extremes(2, {6})
    p_adic_extremes(3, {6})
    for _ in range(2):
        with pytest.raises(ValueError, match="not prime"):
            p_adic_extremes(4, {2, 8})
        with pytest.raises(ValueError, match="not prime"):
            p_adic_extremes(1, {3})


PRIMES_TO_50 = [p for p in range(2, 51) if all(p % q for q in range(2, p))]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    st.sampled_from(PRIMES_TO_50),
    st.lists(
        st.integers(-(10**12), 10**12).filter(bool)
        | st.builds(lambda p, k, u: p**k * u, st.sampled_from(PRIMES_TO_50),
                    st.integers(0, 30), st.sampled_from((-3, -1, 1, 2, 5))),
        min_size=1, max_size=12,
    ),
)
def test_extremes_are_the_orders_of_the_gcd_and_the_lcm(p, xs):
    # min ord_p is ord_p of the gcd and max ord_p that of the lcm, for
    # nonzero integers of either sign
    expected = sweep_reference.extremes(p, xs)
    assert folded_extremes(p, gcd(*xs), lcm(*xs)) == expected
    assert p_adic_extremes(p, xs) == expected
    assert p_adic_extremes(p, iter(xs)) == expected


@pytest.mark.parametrize("p, g, l", [(2, 0, 4), (2, 4, 0), (1, 4, 4), (0, 4, 4), (-1, 4, 4)])
def test_folded_extremes_refuses_what_has_no_finite_order(p, g, l):
    # each of these would divide out p forever (or by zero)
    with pytest.raises(ValueError, match="no finite"):
        folded_extremes(p, g, l)


def test_is_prime_matches_sympy():
    sympy = pytest.importorskip("sympy")
    assert all(_is_prime(p) == sympy.isprime(p) for p in range(-2, 5000))


def test_cyclotomic_small():
    assert cyclotomic(1) == IntPoly([-1, 1])
    assert cyclotomic(2) == IntPoly([1, 1])
    assert cyclotomic(5) == IntPoly([1, 1, 1, 1, 1])
    assert cyclotomic(10) == IntPoly([1, -1, 1, -1, 1])
    assert cyclotomic(12) == IntPoly([1, 0, -1, 0, 1])
    with pytest.raises(ValueError):
        cyclotomic(0)


def test_cyclotomic_prime_powers():
    # Phi_(p^a)(z) = 1 + z^(p^(a-1)) + ... + z^((p-1) p^(a-1))
    for p, a in ((2, 1), (2, 10), (3, 5), (5, 3), (7, 2), (97, 1), (101, 2)):
        step = p ** (a - 1)
        expected = [0] * ((p - 1) * step + 1)
        expected[::step] = [1] * p
        assert cyclotomic(p**a) == IntPoly(expected)


def test_cyclotomic_matches_dense_reference():
    for s in range(1, 1001):
        assert cyclotomic(s) == _dense_cyclotomic(s), s


def test_cyclotomic_matches_sympy():
    sympy = pytest.importorskip("sympy")
    for s in (2310, 2520, 5040, 27720, 30030):
        coeffs = sympy.cyclotomic_poly(s, polys=True).all_coeffs()
        assert cyclotomic(s) == IntPoly(int(c) for c in reversed(coeffs)), s


def test_cyclotomic_at_one():
    assert cyclotomic_at_one(1) == 0
    assert cyclotomic_at_one(16) == 2
    assert cyclotomic_at_one(600) == 1
    assert cyclotomic_at_one(3) == 3
    assert cyclotomic_at_one(49) == 7
    assert cyclotomic_at_one(6) == 1


@pytest.mark.parametrize(
    "primes", [(), (2,), (3,), (2, 3), (2, 5), (3, 5), (5, 7), (3, 5, 7), (7, 11, 13)]
)
def test_is_prime_sum_matches_enumerated_sums(primes):
    sums = {0}
    for p in primes:
        sums = {a + k * p for a in sums for k in range(100 // p + 1)}
    for w in range(101):
        assert is_prime_sum(w, primes) is (w in sums), (w, primes)


def test_is_prime_sum_large_weights():
    assert is_prime_sum(14142, (2,)) and not is_prime_sum(14143, (2,))
    # 3a + 5b reaches every w >= 8; the largest w that 7a + 11b misses is 59
    assert is_prime_sum(10**4 + 1, (3, 5)) and not is_prime_sum(7, (3, 5))
    assert not is_prime_sum(59, (7, 11)) and all(is_prime_sum(w, (7, 11)) for w in range(60, 200))


@lru_cache(maxsize=None)
def _is_prime_sum(w, primes):
    return w == 0 or any(p <= w and _is_prime_sum(w - p, primes) for p in primes)


def _expected_sum_masks(m, proper_divisors, sizes):
    """sum_mask(n) for each n, by the recursion: bit i stands for the order
    m/g of the i-th divisor g < m of m."""
    primes = [tuple(p for p, _ in factorize(m // g)) for g in proper_divisors]
    return {n: sum(1 << i for i, ps in enumerate(primes) if _is_prime_sum(n, ps)) for n in sizes}


def test_sum_mask_matches_recursive_prime_sums(monkeypatch):
    for m in range(1, 1001):
        ctx = ModulusContext(m)
        expected = _expected_sum_masks(m, [g for g in range(1, m) if m % g == 0], range(1, 17))
        for n, mask in expected.items():
            assert ctx.sum_mask(n) == mask, (m, n)
    # 2^6 3^4 5^2 7 11 13 17 19 23 has 6,720 divisors but 2^9 sets of
    # primes, and whether n is a sum of primes depends on the set alone
    exponents = {2: 6, 3: 4, 5: 2, 7: 1, 11: 1, 13: 1, 17: 1, 19: 1, 23: 1}
    m = prod(p**e for p, e in exponents.items())
    assert m == 963_761_198_400
    divs = sorted(
        prod(p**k for p, k in zip(exponents, ks))
        for ks in product(*(range(e + 1) for e in exponents.values()))
    )
    assert len(divs) == 6_720
    expected = _expected_sum_masks(m, divs[:-1], range(1, 9))
    calls = 0

    def counted(w, primes):
        nonlocal calls
        calls += 1
        return is_prime_sum(w, primes)

    monkeypatch.setattr(numtheory, "is_prime_sum", counted)
    ctx = ModulusContext(m)
    for n, mask in expected.items():
        calls = 0
        assert ctx.sum_mask(n) == mask, n
        assert calls <= 2**9, (n, calls)


def test_cyclotomic_value_at_one_agrees():
    # Horner evaluation of the actual polynomial vs the factorization formula
    for s in range(1, 201):
        assert cyclotomic(s)(1) == cyclotomic_at_one(s)


def test_cyclotomic_product_identity():
    for s in range(1, 201):
        prod = IntPoly([1])
        for d in divisors(s):
            prod = prod * cyclotomic(d)
        expected = IntPoly([-1] + [0] * (s - 1) + [1])
        assert prod == expected


def test_cyclotomic_degree_is_totient():
    for s in range(1, 201):
        phi = sum(1 for k in range(1, s + 1) if gcd(k, s) == 1)
        assert cyclotomic(s).degree == phi


def test_poly_divides():
    assert poly_divides(IntPoly([1, 1]), IntPoly([1, 1]))
    assert poly_divides(cyclotomic(2), IntPoly([1, 1]))
    assert not poly_divides(cyclotomic(5), IntPoly([1, 1]))
    assert poly_divides(IntPoly([1, 1]), IntPoly())  # zero dividend
    with pytest.raises(ValueError):
        poly_divides(IntPoly(), IntPoly([1, 1]))
    with pytest.raises(ValueError):
        poly_divides(IntPoly([1, 2]), IntPoly([1, 1]))  # non-monic


def test_poly_divides_transitive():
    rng = random.Random(3)

    def random_monic(max_deg):
        deg = rng.randint(1, max_deg)
        return IntPoly([rng.randint(-4, 4) for _ in range(deg)] + [1])

    for _ in range(200):
        d = random_monic(4)
        f = d * random_monic(3)
        g = f * random_monic(3)
        assert poly_divides(d, f)
        assert poly_divides(f, g)
        assert poly_divides(d, g)


def test_poly_divmod_roundtrip():
    rng = random.Random(4)
    for _ in range(200):
        div = IntPoly([rng.randint(-5, 5) for _ in range(rng.randint(1, 5))] + [1])
        f = IntPoly([rng.randint(-9, 9) for _ in range(rng.randint(0, 10))])
        q, r = f.divmod_monic(div)
        prod = q * div
        total = [0] * (max(len(prod.coeffs), len(r.coeffs)) + 1)
        for i, c in enumerate(prod.coeffs):
            total[i] += c
        for i, c in enumerate(r.coeffs):
            total[i] += c
        assert IntPoly(total) == f  # q*div + r == f
        assert r.degree < div.degree


def test_intpoly_basics():
    zero = IntPoly([0, 0])
    assert not zero and zero.degree == -1
    p = IntPoly([1, 0, 2])
    assert p(3) == 19
    assert str(p) == "2*z^2 + 1"
    assert str(IntPoly([1, -1, 1, -1, 1])) == "z^4 - z^3 + z^2 - z + 1"
    assert str(zero) == "0"
