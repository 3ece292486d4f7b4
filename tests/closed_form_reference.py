"""Per-call reference for the memoized 2x2 and 3x3 closed forms.

``fourier_hadamard.crosschecks._balance_verdict`` reads each primitive set's
p-adic orders from a memo keyed by (m, p, set).  This module keeps the way
without a memo as the independent reference the tests compare it with:
every call validates both sets, factorizes m and takes the p-adic orders of
both sets afresh, checking the primes of m in ascending order and returning
at the first excess.
"""

from __future__ import annotations

from fourier_hadamard.hadamard import Decision, SubmatrixVerdict
from fourier_hadamard.numtheory import factorize, p_adic_extremes
from fourier_hadamard.primsets import PrimitiveSet

RULE_OF_SIZE = {2: "gen2by2", 3: "3by3"}


def balance_verdict(m: int, pj: PrimitiveSet, pk: PrimitiveSet, p: int) -> SubmatrixVerdict:
    """The p-by-p balance test, p = 2 or 3, recomputed on every call.

    Hadamard iff, over the primitive sets minus {1}: p's minimum and maximum
    orders both sum to ord_p(m) + 1, and every other prime dividing m has
    maximum orders summing to at most its order in m.
    """
    rule = RULE_OF_SIZE[p]
    for prims in (pj, pk):
        if any(m % s for s in prims):
            raise ValueError(f"{prims} has elements not dividing m={m}")
        if not 2 <= len(prims) <= p * (p - 1) // 2 + 1:
            raise ValueError(f"{prims} is not the primitive set of a {p}-element selection")
    sj = pj.without_one()
    sk = pk.without_one()
    order = 0
    for r, e in factorize(m):
        if r == p:
            order = e
            continue
        hi = p_adic_extremes(r, sj)[1] + p_adic_extremes(r, sk)[1]
        if hi > e:
            witness = {"kind": "excess", "prime": r, "max_sum": hi, "limit": e}
            return SubmatrixVerdict(Decision.NOT_HADAMARD, rule, witness)
    lo_j, hi_j = p_adic_extremes(p, sj)
    lo_k, hi_k = p_adic_extremes(p, sk)
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
