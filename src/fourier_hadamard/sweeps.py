"""Verification sweeps over ranges of moduli and selection sizes.

Each sweep returns None on a clean pass or a dict describing the first
counterexample found; bounds that select no case raise ValueError, so a
sweep that checks nothing never passes.  The CLI runs them behind the
``verify`` subcommand; the test suite asserts they come back clean.  The
oracle sweeps compute P(x) and Z(x) once per subset and modulus and group
the subsets into classes by that pair.  The closed form reads only the
primitive sets, and the exact verdict only the inclusion of P(J) minus {1}
in Z(K), so each class pair is decided once, by both sides, and stands for
all of its subset pairs.  The vertex-set checks (disjointness across sizes,
containment under scaling) live here and build each graph they compare
once per call.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from functools import lru_cache
from itertools import combinations

from .graphs import build_graph
from .hadamard import Decision, decide_2x2_general, decide_3x3, vanishing_set
from .numtheory import modulus_context, p_adic_extremes
from .primsets import ResidueSet, primitive_set

__all__ = [
    "check_counts_power_of_two",
    "check_oracle_2x2",
    "check_oracle_3x3",
    "check_compprop",
    "compprop_violation",
    "check_disjoint",
    "check_scaling",
]


def check_counts_power_of_two(
    q_max: int
) -> tuple[list[tuple[int, int, int]], dict | None]:
    """Vertex/edge counts of G(2^q, 2) for q up to q_max.

    Expected counts are q vertices and ceil(q/2) edges.  Returns the
    observed (q, |V|, |E|) rows plus the first mismatch, if any.
    """
    if q_max < 1:
        raise ValueError(f"counts2q checks nothing for q_max = {q_max}")
    rows = []
    for q in range(1, q_max + 1):
        graph = build_graph(2**q, 2)
        nv, ne = len(graph.vertices), len(graph.edges)
        rows.append((q, nv, ne))
        if nv != q or ne != (q + 1) // 2:
            return rows, {
                "suite": "counts2q",
                "q": q,
                "vertices": nv,
                "edges": ne,
                "expected": (q, (q + 1) // 2),
            }
    return rows, None


def _oracle_equivalence(m_max: int, n: int, fast_test) -> dict | None:
    if m_max < n:
        raise ValueError(f"oracle{n} checks nothing for m_max = {m_max}")
    for m in range(n, m_max + 1):
        subsets = [ResidueSet(m, (0,) + t) for t in combinations(range(1, m), n - 1)]
        # the indices of the 0-containing subsets, in enumeration order, in
        # classes by (P(x), Z(x)); both verdicts of a pair read only these
        classes: dict[tuple, list[int]] = {}
        for i, x in enumerate(subsets):
            classes.setdefault((primitive_set(x), vanishing_set(x)), []).append(i)
        first = None
        for (pj, _), rows in classes.items():
            prims = frozenset(pj.without_one())
            for (pk, zeros), cols in classes.items():
                if rows[0] > cols[-1]:
                    continue  # no pair j <= k in this class pair
                fast = fast_test(m, pj, pk).decision
                exact = Decision.HADAMARD if prims <= zeros else Decision.NOT_HADAMARD
                if fast is not exact:
                    # the pair-by-pair scan meets this class pair first at its
                    # least row and the least column at or after that row
                    pair = (rows[0], cols[bisect_left(cols, rows[0])])
                    if first is None or pair < first[0]:
                        first = (pair, fast, exact)
        if first is not None:
            (j, k), fast, exact = first
            return {
                "suite": f"oracle{n}",
                "m": m,
                "j": subsets[j].elements,
                "k": subsets[k].elements,
                "fast": fast.value,
                "exact": exact.value,
            }
    return None


def check_oracle_2x2(m_max: int) -> dict | None:
    """The general 2x2 test must agree with the exact oracle on every pair
    of 0-containing 2-subsets for all moduli up to m_max.

    The test gets P(J) and P(K); the exact verdict is the inclusion of P(J)
    minus {1} in the vanishing set Z(K).  Both are decided once per pair of
    (P(x), Z(x)) classes, and a mismatch reports the first subset pair
    J <= K, in enumeration order, that a pair-by-pair scan would meet.
    """
    return _oracle_equivalence(m_max, 2, decide_2x2_general)


def check_oracle_3x3(m_max: int) -> dict | None:
    """The 3x3 test must agree with the exact oracle on every pair of
    0-containing 3-subsets for all moduli up to m_max.

    The test gets P(J) and P(K); the exact verdict is the inclusion of P(J)
    minus {1} in the vanishing set Z(K).  Both are decided once per pair of
    (P(x), Z(x)) classes, and a mismatch reports the first subset pair
    J <= K, in enumeration order, that a pair-by-pair scan would meet.
    """
    return _oracle_equivalence(m_max, 3, decide_3x3)


def compprop_violation(x: ResidueSet) -> dict | None:
    """Check the p-adic bounds tying differences to primitive sets, for every
    prime dividing the modulus of x (|x| >= 2 required).

    With P the primitive set minus {1} and D the differences minus {0}:
      max ord_p(P) <= max(0, ord_p(m) - min ord_p(D))
      min ord_p(P) >= ord_p(m) - max ord_p(D)
      min ord_p(D) >= ord_p(m) - max ord_p(P)
      and when min ord_p(P) >= 1:
      max ord_p(D) <= ord_p(m) - min ord_p(P)
    """
    m = x.modulus
    prims = primitive_set(x).without_one()
    # D = -D, so its positive half has the same p-adic extremes
    diffs = [b - a for a, b in combinations(x.elements, 2)]
    for p, e in modulus_context(m).factorization:
        lo_p, hi_p = p_adic_extremes(p, prims)
        lo_d, hi_d = p_adic_extremes(p, diffs)
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
                "x": x.elements,
                "prime": p,
                "prim_orders": (lo_p, hi_p),
                "diff_orders": (lo_d, hi_d),
            }
    return None


def check_compprop(m_max: int, samples: int) -> dict | None:
    """Exhaustive sweep over moduli up to m_max and sizes 2..4, then
    `samples` random cases with moduli above m_max up to 5000 and sizes up
    to 8, drawn from a fixed seed.

    The exhaustive part checks the 0-containing subsets only.  Whether x
    violates a bound depends only on m and its integer differences, which
    every translate of x inside [0, m) shares, and the 0-containing subsets
    come first among the subsets of one (m, size), so the first
    counterexample is the one that a sweep over all subsets finds.
    """
    if m_max < 2 and samples < 1:
        raise ValueError("compprop checks nothing unless m_max >= 2 or samples >= 1")
    for m in range(2, m_max + 1):
        for size in range(2, min(4, m) + 1):
            for tail in combinations(range(1, m), size - 1):
                bad = compprop_violation(ResidueSet(m, (0,) + tail))
                if bad:
                    return bad
    rng = random.Random(20260810)
    for _ in range(samples):
        m = rng.randint(m_max + 1, 5000)
        size = rng.randint(2, min(8, m))
        elems = tuple(rng.sample(range(m), size))
        bad = compprop_violation(ResidueSet(m, elems))
        if bad:
            return bad
    return None


def check_disjoint(m_values, n_values) -> dict | None:
    """V(G(m,n)) and V(G(m,n')) must be disjoint for n != n'.

    Sizes above m are skipped; a size repeated among the rest raises
    ValueError.  Each G(m,n) is built once, when its first pair comes up.
    """
    graph = lru_cache(maxsize=None)(build_graph)
    compared = False
    for m in m_values:
        sizes = [n for n in n_values if n <= m]
        for n, n2 in combinations(sizes, 2):
            if n == n2:
                raise ValueError("sizes must differ")
            compared = True
            if graph(m, n).vertices & graph(m, n2).vertices:
                return {"suite": "disjoint", "m": m, "n": n, "n2": n2}
    if not compared:
        raise ValueError("disjoint checks nothing: no modulus has two sizes")
    return None


def check_scaling(m_max: int, v_max: int, n_max: int) -> dict | None:
    """V(G(m,n)) must embed in V(G(v*m,n)) for m <= m_max, n <= n_max and
    2 <= v <= v_max (at v = 1 it is G(m,n) itself).

    Each G(m,n) is built once, when a comparison first needs it.
    """
    if m_max < 1 or v_max < 2 or n_max < 1:
        raise ValueError("scaling checks nothing unless m_max, n_max >= 1 and v_max >= 2")
    graph = lru_cache(maxsize=None)(build_graph)
    for m in range(1, m_max + 1):
        for v in range(2, v_max + 1):
            for n in range(1, min(n_max, m) + 1):
                if not graph(m, n).vertices <= graph(v * m, n).vertices:
                    return {"suite": "scaling", "m": m, "v": v, "n": n}
    return None
