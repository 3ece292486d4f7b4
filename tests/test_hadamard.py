import random
import re
import sys
from itertools import combinations
from math import gcd

import pytest

from fourier_hadamard.hadamard import (
    MAX_COMPLEMENT_MODULUS,
    _cyclotomic_divides,
    Decision,
    Screen,
    SubmatrixSpec,
    SubmatrixVerdict,
    certify_by_complement,
    find_complement,
    is_hadamard,
    is_hadamard_exact,
    is_hadamard_numeric,
    screen_prime_powers,
    screen_size_divisor,
    vanishing_set,
    decide_2x2_general,
    decide_2x2_power_of_two,
    decide_2x2_twice_prime,
    decide_3x3,
)
from fourier_hadamard.numtheory import divisors, factorize
from fourier_hadamard.primsets import PrimitiveSet, ResidueSet, primitive_set, shift
from hypothesis import event, given, settings, strategies as st

from closed_form_reference import balance_verdict
from dense_reference import IntPoly, cyclotomic, poly_divides, set_polynomial


def spec(m, j, k):
    return SubmatrixSpec.of(m, j, k)


def sparse(s, exponents):
    """The undecorated sparse vanishing test, so that the memo plays no
    part, with the primes of s found by factorizing s."""
    primes = tuple(p for p, _ in factorize(s))
    return _cyclotomic_divides.__wrapped__(s, exponents, primes)


def test_set_polynomial():
    assert set_polynomial(ResidueSet(4, (0, 1))) == IntPoly([1, 1])
    assert set_polynomial(ResidueSet(4, (0,))) == IntPoly([1])
    assert set_polynomial(ResidueSet(10, (0, 2, 4, 6, 8))) == IntPoly(
        [1, 0, 1, 0, 1, 0, 1, 0, 1]
    )
    x = ResidueSet(30, (0, 3, 17))
    assert set_polynomial(x)(1) == len(x)


def test_set_polynomial_accepts_exponent_tuple():
    assert set_polynomial((0, 2, 5)) == set_polynomial(ResidueSet(6, (0, 2, 5)))
    # exponents past the modulus and in any order
    assert set_polynomial((9, 0, 4)) == IntPoly([1, 0, 0, 0, 1, 0, 0, 0, 0, 1])


def test_exact_oracle_matches_unmemoized_divisibility():
    # the vanishing memo is keyed by (s, exponents) without m: warm it at other
    # moduli with the same column exponents before comparing at m = 12..18
    small_k = [(0,) + t for t in combinations(range(1, 18), 2)]
    for m in range(19, 37):
        for t in divisors(m):
            if 2 * t < m:
                for k in small_k:
                    is_hadamard_exact(spec(m, (0, t, 2 * t), k))
    for m in range(12, 19):
        subsets = [(0,) + t for t in combinations(range(1, m), 2)]
        for k in subsets:
            kpoly = set_polynomial(k)
            for j in subsets:
                expected = all(
                    poly_divides(cyclotomic(s), kpoly)
                    for s in primitive_set(ResidueSet(m, j)).without_one()
                )
                got = is_hadamard_exact(spec(m, j, k)).decision is Decision.HADAMARD
                assert got == expected, (m, j, k)


def test_vanishing_set_matches_dense_divisibility():
    for m in range(1, 17):
        for size in range(1, min(4, m) + 1):
            subsets = [ResidueSet(m, (0,) + t) for t in combinations(range(1, m), size - 1)]
            prims = [set(primitive_set(j).without_one()) for j in subsets]
            for k in subsets:
                kpoly = set_polynomial(k)
                zeros = vanishing_set(k)
                assert zeros == {
                    s for s in divisors(m)[1:] if poly_divides(cyclotomic(s), kpoly)
                }, (m, k)
                for j, pj in zip(subsets, prims):
                    included = pj <= zeros
                    exact = is_hadamard_exact(SubmatrixSpec(m, j, k)).decision
                    assert included == (exact is Decision.HADAMARD), (m, j, k)


@st.composite
def square_selections(draw):
    m = draw(st.integers(2, 120))
    size = draw(st.integers(2, min(6, m)))
    residues = st.lists(st.integers(0, m - 1), min_size=size, max_size=size, unique=True)
    return m, tuple(draw(residues)), tuple(draw(residues))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(square_selections())
def test_vanishing_set_inclusion_matches_exact_oracle(selection):
    m, j, k = selection
    sp = spec(m, j, k)
    included = set(primitive_set(sp.j).without_one()) <= vanishing_set(sp.k)
    assert included == (is_hadamard_exact(sp).decision is Decision.HADAMARD)


def test_sparse_vanishing_matches_dense_exhaustive():
    # every m <= 30, every s | m and every 0-containing K with |K| <= 4,
    # through the undecorated test so that the memo plays no part
    cases = 0
    for m in range(1, 31):
        ks = [(0,) + t for size in range(4) for t in combinations(range(1, m), size)]
        kpolys = [set_polynomial(k) for k in ks]
        for s in divisors(m):
            phi = cyclotomic(s)
            for k, kpoly in zip(ks, kpolys):
                assert sparse(s, k) == poly_divides(phi, kpoly), (m, s, k)
            cases += len(ks)
    assert cases == 146_079


def test_sparse_vanishing_counts_repeated_exponents():
    # 1 + zeta + zeta^2 + zeta^3 = zeta^3 = 1 at a primitive cube root of
    # unity: the exponents 0 and 3 fall in one class mod 3 and count twice
    assert not sparse(3, (0, 1, 2, 3))
    assert not poly_divides(cyclotomic(3), set_polynomial((0, 1, 2, 3)))
    assert sparse(3, (0, 1, 2)) and sparse(3, (3, 4, 8))
    assert sparse(6, (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11))
    assert not sparse(1, (0,)) and sparse(1, ())


def test_vanishing_memo_is_bounded():
    bound = _cyclotomic_divides.cache_info().maxsize
    assert bound is not None
    # 1 + z^e vanishes at z = -1 iff e is odd; every key is distinct
    for e in range(bound + 100):
        assert _cyclotomic_divides(2, (0, e), (2,)) is (e % 2 == 1)
    assert _cyclotomic_divides.cache_info().currsize <= bound


@st.composite
def vanishing_cases(draw):
    m = draw(st.integers(2, 2520))
    s = draw(st.sampled_from(divisors(m)))
    if draw(st.booleans()):
        # a union of cosets a + (m/d)*{0..d-1}; a coset's polynomial is
        # z^a (z^m - 1)/(z^(m/d) - 1), which vanishes at every s | m that
        # does not divide m/d
        orders = [d for d in divisors(m)[1:] if d <= 16] or [m]
        residues = set()
        for _ in range(draw(st.integers(1, 3))):
            d = draw(st.sampled_from(orders))
            a = draw(st.integers(0, m - 1))
            residues.update((a + i * (m // d)) % m for i in range(d))
    else:
        residues = set(draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=8)))
    # lift some residues past m and shuffle, as certify_by_complement and the
    # memo key allow
    exponents = [e + m * draw(st.integers(0, 1)) for e in sorted(residues)]
    return s, tuple(draw(st.permutations(exponents)))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(vanishing_cases())
def test_sparse_vanishing_matches_dense_random(case):
    s, exponents = case
    expected = poly_divides(cyclotomic(s), set_polynomial(exponents))
    assert sparse(s, exponents) == expected


@pytest.mark.parametrize("m", [55_440, 720_720, 10**12])
def test_exact_oracle_large_modulus(m):
    # K(z) = (z^m - 1)/(z^(m/4) - 1) vanishes at exactly the orders s | m that
    # do not divide m/4, and every order m/gcd(m, d), d = 1, 2, 3, in the
    # primitive set of {0,1,2,3} exceeds m/4
    q = m // 4
    sp = spec(m, (0, 1, 2, 3), (0, q, 2 * q, 3 * q))
    assert is_hadamard_exact(sp).decision is Decision.HADAMARD
    assert vanishing_set(sp.k) == {s for s in divisors(m) if q % s}


def test_exact_oracle_factorizes_the_modulus_once(factorize_calls):
    m = 999_999_999_989  # prime
    q = spec(m, (0, 1, 2, 3), (0, 1, 2, 3))
    assert is_hadamard_exact(q).witness == {"kind": "cyclotomic", "s": m}
    assert is_hadamard_exact(spec(m, (0, 5, 7, 11), (0, 2, 3, 4))).decision is Decision.NOT_HADAMARD
    assert vanishing_set(q.k) == frozenset()
    assert factorize_calls == [m]


def test_exact_oracle_battery():
    assert is_hadamard_exact(spec(10, (0, 1, 7, 8, 9), (0, 2, 4, 6, 8))).decision is Decision.HADAMARD
    assert is_hadamard_exact(spec(21, (0, 2, 16), (0, 7, 14))).decision is Decision.HADAMARD
    assert is_hadamard_exact(spec(12, (0, 4, 8), (0, 1, 2))).decision is Decision.HADAMARD
    assert is_hadamard_exact(spec(4, (0, 2), (0, 1))).decision is Decision.HADAMARD
    # 1x1 selections are always Hadamard (single unimodular entry)
    assert is_hadamard_exact(spec(7, (0,), (0,))).decision is Decision.HADAMARD
    assert is_hadamard_exact(spec(9, (4,), (7,))).decision is Decision.HADAMARD


def test_exact_oracle_ruled_out_for_every_k():
    # row set {0,4} mod 6 pairs with no 2-element column set
    for k in combinations(range(6), 2):
        verdict = is_hadamard_exact(spec(6, (0, 4), k))
        assert verdict.decision is Decision.NOT_HADAMARD
        assert verdict.witness["s"] in (3, 6)


def test_exact_oracle_never_inconclusive_and_witnessed():
    rng = random.Random(20)
    for _ in range(300):
        m = rng.randint(2, 40)
        n = rng.randint(1, min(5, m))
        s = spec(m, tuple(rng.sample(range(m), n)), tuple(rng.sample(range(m), n)))
        verdict = is_hadamard_exact(s)
        assert verdict.decision in (Decision.HADAMARD, Decision.NOT_HADAMARD)
        if verdict.decision is Decision.NOT_HADAMARD:
            assert verdict.witness["s"] in primitive_set(s.j)


def test_rectangular_rejected():
    message = "row set has 2 elements but column set has 3; Hadamard submatrices are square"
    with pytest.raises(ValueError, match=f"^{message}$"):
        spec(10, (0, 1), (0, 1, 2))
    with pytest.raises(ValueError, match="row set has 3 elements but column set has 2"):
        SubmatrixSpec(10, ResidueSet(10, (0, 1, 2)), ResidueSet(10, (0, 1)))


def test_numeric_oracle():
    assert is_hadamard_numeric(spec(10, (0, 1, 7, 8, 9), (0, 2, 4, 6, 8))).decision is Decision.HADAMARD
    assert is_hadamard_numeric(spec(6, (0, 4), (0, 1))).decision is Decision.NOT_HADAMARD
    assert is_hadamard_numeric(spec(3, (1,), (2,))).decision is Decision.HADAMARD
    for tol in (0.0, -1e-9, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="tolerance must be positive and finite"):
            is_hadamard_numeric(spec(4, (0, 2), (0, 1)), tol=tol)


def test_numeric_oracle_large_modulus():
    # j*k reaches 2^82 here, past int64; rows differ by 2^40 and 2^41, both
    # of order 3, so K is Hadamard iff it hits every class mod 3
    m = 3 * 2**40
    j = (0, 2**40, 2**41)
    hadamard = spec(m, j, (0, 2**41 - 1, 2**41))
    assert is_hadamard_numeric(hadamard).decision is Decision.HADAMARD
    repeated_class = spec(m, j, (0, 2**41 - 1, 2**41 + 1))
    assert is_hadamard_numeric(repeated_class).decision is Decision.NOT_HADAMARD


def prim(m, elements):
    return primitive_set(ResidueSet(m, elements))


def test_screen_size_divisor():
    assert screen_size_divisor(prim(6000, (0, 5, 375)), 3) is Screen.RULED_OUT
    assert screen_size_divisor(prim(6, (0, 4)), 2) is Screen.RULED_OUT
    assert screen_size_divisor(prim(10, (0, 1, 7, 8, 9)), 5) is Screen.INCONCLUSIVE


def test_screen_prime_powers():
    assert screen_prime_powers(12, prim(12, (0, 1, 6, 9))) is Screen.RULED_OUT
    assert screen_prime_powers(12, prim(12, tuple(range(12)))) is Screen.INCONCLUSIVE
    assert screen_prime_powers(10, prim(10, (0, 1, 7, 8, 9))) is Screen.INCONCLUSIVE
    with pytest.raises(ValueError, match="has elements not dividing m=10"):
        screen_prime_powers(10, PrimitiveSet((1, 4)))


def test_screens_never_contradict_oracle():
    # a ruled-out row set must fail the oracle against every column set
    for m in range(2, 21):
        for n in (2, 3):
            if n > m:
                continue
            k_sets = [(0,) + t for t in combinations(range(1, m), n - 1)]
            for j_tail in combinations(range(1, m), n - 1):
                j = ResidueSet(m, (0,) + j_tail)
                if screen_size_divisor(primitive_set(j), n) is Screen.RULED_OUT:
                    for k in k_sets:
                        assert is_hadamard_exact(spec(m, j.elements, k)).decision is Decision.NOT_HADAMARD


def test_certify_by_complement():
    j = ResidueSet(10, (0, 1, 7, 8, 9))
    k = ResidueSet(10, (0, 2, 4, 6, 8))
    assert certify_by_complement(j, k, {0, 1}) is Decision.HADAMARD
    assert certify_by_complement(ResidueSet(2, (0, 1)), ResidueSet(2, (0, 1)), {0}) is Decision.HADAMARD
    # 2 in the primitive set of J makes the certificate silent, not negative
    j2 = ResidueSet(10, (0, 2, 4, 5, 7))
    assert 2 in primitive_set(j2)
    assert certify_by_complement(j2, k, {0, 1}) is Decision.INCONCLUSIVE
    # non-tiling complement is a caller error
    with pytest.raises(ValueError):
        certify_by_complement(j, k, {0, 2})
    with pytest.raises(ValueError):
        certify_by_complement(j, k, {0})


def test_certify_by_complement_rejects_wrong_size_before_allocating():
    # |K| * |A| != m rules out a tiling up front, so a huge m allocates
    # nothing (the per-residue count list would need terabytes here)
    m = 10**12
    j, k = ResidueSet(m, (0, 1)), ResidueSet(m, (0, 1))
    with pytest.raises(ValueError, match="^k \\+ a is not a complete residue system mod m$"):
        certify_by_complement(j, k, {0})


def test_certificate_implies_oracle():
    # whenever the certificate fires, the oracle must agree (exhaustive small)
    for m in range(2, 21):
        for n in (2, 3):
            if n > m or m % n:
                continue
            k_sets = [ResidueSet(m, (0,) + t) for t in combinations(range(1, m), n - 1)]
            j_sets = k_sets
            for k in k_sets:
                a = find_complement(k)
                if a is None:
                    continue
                for j in j_sets:
                    if certify_by_complement(j, k, a) is Decision.HADAMARD:
                        assert is_hadamard_exact(SubmatrixSpec(m, j, k)).decision is Decision.HADAMARD


def test_certify_by_complement_exponents_past_modulus():
    # z^(a+m) = z^a modulo every Phi_s with s | m, so a and a + m certify alike
    for m in range(2, 21):
        for n in (2, 3):
            if n > m or m % n:
                continue
            sets = [ResidueSet(m, (0,) + t) for t in combinations(range(1, m), n - 1)]
            for k in sets:
                a = find_complement(k)
                if a is None:
                    continue
                for ae in a:
                    lifted = (a - {ae}) | {ae + m}
                    for j in sets:
                        assert certify_by_complement(j, k, lifted) is certify_by_complement(j, k, a)


def test_find_complement():
    assert find_complement(ResidueSet(10, (0, 2, 4, 6, 8))) == {0, 1}
    assert find_complement(ResidueSet(4, (0, 1, 2, 3))) == {0}
    assert find_complement(ResidueSet(4, (0, 1, 3))) is None  # 3 does not divide 4
    # {0,3} mod 6: adding a covers {a, a+3}; {0,1,2} works
    assert find_complement(ResidueSet(6, (0, 3))) == {0, 1, 2}


def test_find_complement_refuses_huge_modulus():
    # one flag per residue: 10^12 of them would exhaust memory
    limit = MAX_COMPLEMENT_MODULUS
    for m in (limit + 1, 10**12):
        with pytest.raises(ValueError, match=f"^find_complement keeps one flag per residue; "
                           f"m = {m} exceeds the limit of {limit}$"):
            find_complement(ResidueSet(m, (0, 1)))


def test_find_complement_deep_search():
    # m/|K| choices deep, past the interpreter's default recursion limit
    assert find_complement(ResidueSet(2400, (0, 1))) == set(range(0, 2400, 2))
    assert find_complement(ResidueSet(3000, (0,))) == set(range(3000))


def test_find_complement_is_tiling():
    rng = random.Random(21)
    found = 0
    for _ in range(200):
        m = rng.randint(2, 30)
        size = rng.choice([d for d in range(1, m + 1) if m % d == 0])
        k = ResidueSet(m, tuple(rng.sample(range(m), size)))
        a = find_complement(k)
        if a is None:
            continue
        found += 1
        hits = [0] * m
        for ke in k:
            for ae in a:
                hits[(ke + ae) % m] += 1
        assert all(h == 1 for h in hits)
    assert found > 50


def test_2x2_power_of_two_cases():
    assert decide_2x2_power_of_two(4, prim(4, (0, 2)), prim(4, (0, 1))).decision is Decision.HADAMARD
    assert decide_2x2_power_of_two(16, prim(16, (0, 1)), prim(16, (0, 1))).decision is Decision.NOT_HADAMARD
    assert decide_2x2_power_of_two(2, prim(2, (0, 1)), prim(2, (0, 1))).decision is Decision.HADAMARD
    # a modulus that is no power of two (the old q disagreeing with m)
    with pytest.raises(ValueError, match="^12 is not a power of two >= 2$"):
        decide_2x2_power_of_two(12, prim(12, (0, 6)), prim(12, (0, 3)))
    with pytest.raises(ValueError, match="^1 is not a power of two >= 2$"):
        decide_2x2_power_of_two(1, PrimitiveSet((1,)), PrimitiveSet((1,)))
    with pytest.raises(ValueError, match="has elements not dividing m=4"):
        decide_2x2_power_of_two(4, prim(8, (0, 1)), prim(4, (0, 1)))
    # the primitive set of a 3-selection (the old wrong-size selection)
    with pytest.raises(ValueError, match="is not the primitive set of a 2-element selection"):
        decide_2x2_power_of_two(4, prim(4, (0, 1, 2)), prim(4, (0, 1)))


def test_2x2_power_of_two_matches_exact():
    for q in range(1, 6):
        m = 2**q
        pairs = [(0, x) for x in range(1, m)]
        for j in pairs:
            for k in pairs:
                fast = decide_2x2_power_of_two(m, prim(m, j), prim(m, k))
                exact = is_hadamard_exact(spec(m, j, k))
                assert fast.decision is exact.decision


def test_2x2_twice_prime_cases():
    assert decide_2x2_twice_prime(6, prim(6, (0, 3)), prim(6, (0, 3))).decision is Decision.HADAMARD
    assert decide_2x2_twice_prime(6, prim(6, (0, 4)), prim(6, (0, 3))).decision is Decision.NOT_HADAMARD
    assert decide_2x2_twice_prime(10, prim(10, (0, 5)), prim(10, (0, 1))).decision is Decision.HADAMARD
    # a modulus that is not twice an odd prime (the old p = 4)
    with pytest.raises(ValueError, match="^8 is not twice an odd prime$"):
        decide_2x2_twice_prime(8, prim(8, (0, 1)), prim(8, (0, 1)))
    # sets from another modulus (the old p = 3 against selections mod 7)
    with pytest.raises(ValueError, match="has elements not dividing m=6"):
        decide_2x2_twice_prime(6, prim(7, (0, 1)), prim(7, (0, 1)))
    with pytest.raises(ValueError, match="^7 is not twice an odd prime$"):
        decide_2x2_twice_prime(7, prim(7, (0, 1)), prim(7, (0, 1)))


def test_2x2_twice_prime_matches_exact():
    for p in (3, 5, 7):
        m = 2 * p
        pairs = [(0, x) for x in range(1, m)]
        for j in pairs:
            for k in pairs:
                fast = decide_2x2_twice_prime(m, prim(m, j), prim(m, k))
                exact = is_hadamard_exact(spec(m, j, k))
                assert fast.decision is exact.decision


def test_2x2_general_cases():
    j = ResidueSet(180, (0, 9))
    k = ResidueSet(180, (0, 10))
    assert primitive_set(j) == PrimitiveSet([1, 20])
    assert primitive_set(k) == PrimitiveSet([1, 18])
    assert decide_2x2_general(180, primitive_set(j), primitive_set(k)).decision is Decision.HADAMARD
    bad = decide_2x2_general(180, prim(180, (0, 10)), prim(180, (0, 30)))
    assert bad.decision is Decision.NOT_HADAMARD
    assert bad.witness == {"kind": "excess", "prime": 3, "max_sum": 3, "limit": 2}
    assert decide_2x2_general(2, prim(2, (0, 1)), prim(2, (0, 1))).decision is Decision.HADAMARD
    # the primitive set of a 3-selection (the old wrong-size selections), and
    # {1}, which no 2-selection has
    with pytest.raises(ValueError, match="is not the primitive set of a 2-element selection"):
        decide_2x2_general(8, prim(8, (0, 1, 2)), prim(8, (0, 1, 2)))
    with pytest.raises(ValueError, match="is not the primitive set of a 2-element selection"):
        decide_2x2_general(8, PrimitiveSet((1,)), prim(8, (0, 1)))
    with pytest.raises(ValueError, match="has elements not dividing m=8"):
        decide_2x2_general(8, prim(16, (0, 1)), prim(8, (0, 1)))


def test_3x3_cases():
    # {1,9,45} and {1,6,12} are compatible mod 180
    j = _with_primitive_set(180, 3, (1, 9, 45))
    k = _with_primitive_set(180, 3, (1, 6, 12))
    assert decide_3x3(180, primitive_set(j), primitive_set(k)).decision is Decision.HADAMARD
    j2 = _with_primitive_set(180, 3, (1, 15, 60))
    k2 = _with_primitive_set(180, 3, (1, 30, 60))
    assert decide_3x3(180, primitive_set(j2), primitive_set(k2)).decision is Decision.NOT_HADAMARD
    assert decide_3x3(3, prim(3, (0, 1, 2)), prim(3, (0, 1, 2))).decision is Decision.HADAMARD
    # more elements than C(3,2) + 1 = 4 (the old wrong-size selection)
    with pytest.raises(ValueError, match="is not the primitive set of a 3-element selection"):
        decide_3x3(36, PrimitiveSet((1, 2, 3, 4, 6)), prim(36, (0, 1, 2)))
    with pytest.raises(ValueError, match="has elements not dividing m=9"):
        decide_3x3(9, prim(27, (0, 1, 2)), prim(9, (0, 1, 2)))


@st.composite
def closed_form_cases(draw):
    """(m, J, K, planted) with n = |J| = |K| in {2, 3} and m up to 10^6.

    A planted draw takes n | m, r | m/n and u, w prime to n, and sets
    J = {a + i*r*w} and K = {b + l*u*m/(n*r)}: the products j*k/m are then
    i*l*u*w/n up to row and column phases, a Fourier matrix of order n, so
    the pair is Hadamard.  Other draws are uniform random selections.
    """
    n = draw(st.sampled_from((2, 3)))
    if draw(st.booleans()):
        m = n * draw(st.integers(1, 10**6 // n))
        r = draw(st.sampled_from(divisors(m // n)))
        units = st.integers(1, 10**6).filter(lambda x: x % n)
        u, w = draw(units), draw(units)
        a, b = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
        j = tuple((a + i * r * w) % m for i in range(n))
        k = tuple((b + i * u * (m // (n * r))) % m for i in range(n))
        return m, j, k, True
    m = draw(st.integers(n, 10**6))
    residues = st.lists(st.integers(0, m - 1), min_size=n, max_size=n, unique=True)
    return m, tuple(draw(residues)), tuple(draw(residues)), False


@settings(derandomize=True, max_examples=300, deadline=None)
@given(closed_form_cases())
def test_closed_forms_match_exact_oracle_random(case):
    m, j, k, planted = case
    sp = spec(m, j, k)
    pj, pk = primitive_set(sp.j), primitive_set(sp.k)
    decide = decide_2x2_general if len(j) == 2 else decide_3x3
    fast = decide(m, pj, pk).decision
    event(f"{len(j)}x{len(j)} {fast.value}")
    included = set(pj.without_one()) <= vanishing_set(sp.k)
    assert (fast is Decision.HADAMARD) == included
    assert fast is is_hadamard_exact(sp).decision
    assert fast is Decision.HADAMARD or not planted


DECIDERS = {2: decide_2x2_general, 3: decide_3x3}


def test_closed_forms_match_per_call_reference_exhaustive():
    # every pair of primitive sets of 0-containing n-subsets, m <= 36, in two
    # passes, upward then downward: the second pass reads profiles that were
    # stored while the other moduli and sizes were decided
    cases = [(n, m) for n in (2, 3) for m in range(n, 37)]
    for n, m in cases + cases[::-1]:
        sets = sorted(
            {primitive_set(ResidueSet(m, (0,) + t)) for t in combinations(range(1, m), n - 1)}
        )
        for pj in sets:
            for pk in sets:
                assert DECIDERS[n](m, pj, pk) == balance_verdict(m, pj, pk, n), (m, pj, pk)


@st.composite
def balance_cases(draw):
    """(n, m, J, K) for the n-by-n balance test, n in {2, 3}, m up to 10^6.

    The modulus is any, prime to n, or a high power of n times a cofactor
    prime to n.  When n divides m, half the draws plant a Hadamard pair as
    ``closed_form_cases`` does; the others are uniform random selections.
    """
    n = draw(st.sampled_from((2, 3)))
    top = 10**6

    def prime_to_n(lo, hi):
        # a multiple of the prime n moves to a neighbour in [lo, hi], which n
        # does not divide; a filter would discard a third to a half of the draws
        return st.integers(lo, hi).map(lambda x: x if x % n else x + 1 if x < hi else x - 1)

    shape = draw(st.sampled_from(("any", "prime to n", "power of n")))
    if shape == "any":
        m = draw(st.integers(n, top))
    elif shape == "prime to n":
        m = draw(prime_to_n(n, top))
    else:
        a_max = 19 if n == 2 else 12  # n^a_max <= 10^6 < n^(a_max + 1)
        a = draw(st.integers(a_max // 2, a_max))
        m = n**a * draw(prime_to_n(1, top // n**a))
    if m % n == 0 and draw(st.booleans()):
        r = draw(st.sampled_from(divisors(m // n)))
        u, w = draw(prime_to_n(1, top)), draw(prime_to_n(1, top))
        j = tuple(i * r * w % m for i in range(n))
        k = tuple(i * u * (m // (n * r)) % m for i in range(n))
        return n, m, j, k
    residues = st.lists(st.integers(0, m - 1), min_size=n, max_size=n, unique=True)
    return n, m, tuple(draw(residues)), tuple(draw(residues))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.lists(balance_cases(), min_size=3, max_size=3))
def test_closed_forms_match_per_call_reference_random(cases):
    # three moduli per draw, decided forward and then backward, so each is
    # read again after the others have been stored
    for n, m, j, k in cases + cases[::-1]:
        pj, pk = primitive_set(ResidueSet(m, j)), primitive_set(ResidueSet(m, k))
        got = DECIDERS[n](m, pj, pk)
        event(f"{n}x{n} {got.witness['kind'] if got.witness else 'hadamard'}")
        assert got == balance_verdict(m, pj, pk, n), (m, j, k)


def test_closed_form_memo_never_skips_validation():
    p15, p116, p124 = PrimitiveSet((1, 5)), PrimitiveSet((1, 16)), PrimitiveSet((1, 2, 4))
    # each bad set below is valid at another modulus or size: store those first
    decide_3x3(5, p15, p15)
    decide_2x2_general(16, p116, p116)
    decide_2x2_general(8, prim(8, (0, 1)), prim(8, (0, 1)))
    decide_3x3(12, prim(12, (0, 1, 2)), prim(12, (0, 1, 2)))
    decide_3x3(36, prim(36, (0, 1, 2)), prim(36, (0, 1, 2)))
    bad_calls = [
        (decide_3x3, 12, prim(12, (0, 1, 2)), p15, "{1,5} has elements not dividing m=12"),
        (decide_2x2_general, 8, p116, prim(8, (0, 1)), "{1,16} has elements not dividing m=8"),
        (
            decide_3x3,
            36,
            PrimitiveSet((1, 2, 3, 4, 6)),
            prim(36, (0, 1, 2)),
            "{1,2,3,4,6} is not the primitive set of a 3-element selection",
        ),
    ]
    for decide, m, pj, pk, message in bad_calls:
        for _ in range(2):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                decide(m, pj, pk)
    # a set accepted for 3x3 is checked afresh for 2x2
    assert decide_3x3(8, p124, p124).rule == "3by3"
    for _ in range(2):
        with pytest.raises(
            ValueError, match=r"^\{1,2,4\} is not the primitive set of a 2-element selection$"
        ):
            decide_2x2_general(8, p124, p124)


def _with_primitive_set(m, size, target):
    """Find a size-element selection whose primitive set is the target."""
    want = PrimitiveSet(target)
    for elems in combinations(range(m), size):
        x = ResidueSet(m, elems)
        if primitive_set(x) == want:
            return x
    raise AssertionError(f"no {size}-subset of Z_{m} has primitive set {want}")


def test_dispatcher_routes_and_agrees():
    v = is_hadamard(spec(180, (0, 9), (0, 10)))
    assert v.rule == "gen2by2"
    v = is_hadamard(spec(21, (0, 2, 16), (0, 7, 14)))
    assert v.rule == "3by3" and v.decision is Decision.HADAMARD
    v = is_hadamard(spec(30, (0, 5, 10, 15, 20, 25), (0, 1, 2, 3, 4, 5)))
    assert v.rule == "exact"
    v = is_hadamard(spec(11, (3,), (5,)))
    assert v.rule == "exact" and v.decision is Decision.HADAMARD


def test_verdict_rule_registry():
    with pytest.raises(ValueError):
        SubmatrixVerdict(Decision.HADAMARD, "made-up-rule")


def test_exact_oracle_symmetry():
    rng = random.Random(22)
    for _ in range(300):
        m = rng.randint(2, 36)
        n = rng.randint(1, min(4, m))
        j = tuple(rng.sample(range(m), n))
        k = tuple(rng.sample(range(m), n))
        assert is_hadamard_exact(spec(m, j, k)).decision is is_hadamard_exact(spec(m, k, j)).decision


def test_verdict_shift_invariance():
    rng = random.Random(23)
    for _ in range(300):
        m = rng.randint(2, 36)
        n = rng.randint(1, min(4, m))
        j = ResidueSet(m, tuple(rng.sample(range(m), n)))
        k = ResidueSet(m, tuple(rng.sample(range(m), n)))
        a, b = rng.randint(-50, 50), rng.randint(-50, 50)
        before = is_hadamard_exact(SubmatrixSpec(m, j, k)).decision
        after = is_hadamard_exact(SubmatrixSpec(m, shift(j, a), shift(k, b))).decision
        assert before is after


def test_transfer_between_equal_primitive_sets_small():
    # equal primitive sets force equal verdicts against any fixed column set;
    # full-scale sweep lives in the acceptance suite
    for m in range(2, 13):
        for n in (2, 3):
            if n > m:
                continue
            buckets = {}
            for elems in combinations(range(m), n):
                buckets.setdefault(primitive_set(ResidueSet(m, elems)), []).append(elems)
            k_sets = [(0,) + t for t in combinations(range(1, m), n - 1)]
            for k in k_sets:
                for members in buckets.values():
                    verdicts = {
                        is_hadamard_exact(spec(m, j, k)).decision for j in members
                    }
                    assert len(verdicts) == 1


def test_mutual_exclusion():
    # once a primitive set belongs to an n-by-n Hadamard row set, no larger
    # selection can realize the same primitive set (m <= 20, all sizes);
    # 0-containing subsets suffice because shifting changes neither side
    sys.setrecursionlimit(100000)
    for m in range(2, 21):
        prim_of = [m // gcd(m, d) for d in range(m)]
        sizes_of = {}
        reps = {}

        def walk(subset, prims):
            k = len(subset)
            sizes_of.setdefault(prims, set()).add(k)
            if (k, prims) not in reps:
                reps[(k, prims)] = subset
            for x in range(subset[-1] + 1, m):
                walk(subset + (x,), prims | frozenset(prim_of[x - y] for y in subset))

        walk((0,), frozenset({1}))
        by_n = {}
        for (k, prims), rep in reps.items():
            by_n.setdefault(k, {})[prims] = rep
        for n, bucket in by_n.items():
            keys = sorted(bucket, key=sorted)
            vertices = set()
            for i, p in enumerate(keys):
                for q in keys[i:]:
                    if p in vertices and q in vertices:
                        continue
                    s = SubmatrixSpec(m, ResidueSet(m, bucket[p]), ResidueSet(m, bucket[q]))
                    if is_hadamard_exact(s).decision is Decision.HADAMARD:
                        vertices.add(p)
                        vertices.add(q)
            for p in vertices:
                assert not [s for s in sizes_of[p] if s > n], (m, n, sorted(p))
