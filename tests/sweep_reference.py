"""Pair-by-pair references for the oracle and compprop sweeps.

``fourier_hadamard.sweeps`` decides each pair of (P(x), Z(x)) classes once
and checks compprop on the 0-containing subsets only.  This module keeps
the plain scans as the independent references the tests compare them with:
the oracle reference calls the closed form and takes the exact inclusion
on every pair of 0-containing subsets J <= K, and the compprop reference
checks every subset of every modulus up to m_max.  ``compprop_violation``
keeps the per-element form of the compprop check, which
``sweeps.compprop_violation`` reads off gcd and lcm folds instead; its
per-element walk, ``extremes``, is also the reference for the folds in
``numtheory``.
"""

from __future__ import annotations

import random
from itertools import combinations
from math import gcd

from fourier_hadamard import sweeps
from fourier_hadamard.hadamard import Decision, vanishing_set
from fourier_hadamard.numtheory import modulus_context
from fourier_hadamard.primsets import ResidueSet, primitive_set


def oracle_equivalence(m_max: int, n: int, fast_test) -> dict | None:
    """The first pair whose closed-form decision differs from the exact one."""
    if m_max < n:
        raise ValueError(f"oracle{n} checks nothing for m_max = {m_max}")
    for m in range(n, m_max + 1):
        # each 0-containing subset with P(x) and Z(x), computed once per m
        rows = [
            (x, primitive_set(x), vanishing_set(x))
            for x in (ResidueSet(m, (0,) + t) for t in combinations(range(1, m), n - 1))
        ]
        for i, (j, pj, _) in enumerate(rows):
            prims = frozenset(pj.without_one())
            for k, pk, zeros in rows[i:]:
                fast = fast_test(m, pj, pk).decision
                exact = Decision.HADAMARD if prims <= zeros else Decision.NOT_HADAMARD
                if fast is not exact:
                    return {
                        "suite": f"oracle{n}",
                        "m": m,
                        "j": j.elements,
                        "k": k.elements,
                        "fast": fast.value,
                        "exact": exact.value,
                    }
    return None


def compprop(m_max: int, samples: int) -> dict | None:
    """The first subset that ``sweeps.compprop_violation`` flags, over every
    subset of sizes 2..4 for moduli up to m_max and then the seeded random
    samples, as ``sweeps.check_compprop`` draws them."""
    if m_max < 2 and samples < 1:
        raise ValueError("compprop checks nothing unless m_max >= 2 or samples >= 1")
    for m in range(2, m_max + 1):
        for size in range(2, min(4, m) + 1):
            for elems in combinations(range(m), size):
                bad = sweeps.compprop_violation(m, elems)
                if bad:
                    return bad
    rng = random.Random(20260810)
    for _ in range(samples):
        m = rng.randint(max(m_max + 1, 2), 5000)
        size = rng.randint(2, min(8, m))
        elems = tuple(sorted(rng.sample(range(m), size)))
        bad = sweeps.compprop_violation(m, elems)
        if bad:
            return bad
    return None


def extremes(p: int, xs) -> tuple[int, int]:
    """(min, max) of ord_p over nonzero integers, one element at a time."""
    orders = []
    for n in xs:
        n, v = abs(n), 0
        while n % p == 0:
            n //= p
            v += 1
        orders.append(v)
    return min(orders), max(orders)


def compprop_violation(m: int, elements: tuple[int, ...]) -> dict | None:
    """The compprop check element by element, with no gcd or lcm fold: the
    p-adic extremes of the set of differences and of the set of
    primitive-set orders, walked afresh for every prime of m."""
    diffs = {b - a for a, b in combinations(elements, 2)}
    prims = {m // gcd(m, d) for d in diffs}
    for p, e in modulus_context(m).factorization:
        lo_p, hi_p = extremes(p, prims)
        lo_d, hi_d = extremes(p, diffs)
        checks = [
            hi_p <= max(0, e - lo_d),
            lo_p >= e - hi_d,
            lo_d >= e - hi_p,
        ]
        if lo_p >= 1:
            checks.append(hi_d <= e - lo_p)
        if not all(checks):
            return {
                "suite": "compprop",
                "m": m,
                "x": elements,
                "prime": p,
                "prim_orders": (lo_p, hi_p),
                "diff_orders": (lo_d, hi_d),
            }
    return None
