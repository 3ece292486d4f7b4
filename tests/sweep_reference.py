"""Pair-by-pair references for the oracle and compprop sweeps.

``fourier_hadamard.sweeps`` decides each pair of (P(x), Z(x)) classes once
and checks compprop on the 0-containing subsets only.  This module keeps
the plain scans as the independent references the tests compare them with:
the oracle reference calls the closed form and takes the exact inclusion
on every pair of 0-containing subsets J <= K, and the compprop reference
checks every subset of every modulus up to m_max.
"""

from __future__ import annotations

import random
from itertools import combinations

from fourier_hadamard import sweeps
from fourier_hadamard.hadamard import Decision, vanishing_set
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
                bad = sweeps.compprop_violation(ResidueSet(m, elems))
                if bad:
                    return bad
    rng = random.Random(20260810)
    for _ in range(samples):
        m = rng.randint(m_max + 1, 5000)
        size = rng.randint(2, min(8, m))
        elems = tuple(rng.sample(range(m), size))
        bad = sweeps.compprop_violation(ResidueSet(m, elems))
        if bad:
            return bad
    return None
