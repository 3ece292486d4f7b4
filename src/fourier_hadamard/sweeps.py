"""Verification sweeps over ranges of moduli and selection sizes.

Each sweep returns None on a clean pass or a dict describing the first
counterexample found; bounds that select no case raise ValueError, so a
sweep that checks nothing never passes.  Bounds under which an exhaustive
part would enumerate more than the graph builder's MAX_SUBSETS subsets
raise ValueError too, before any work.  The CLI runs them behind the
``verify`` subcommand; the test suite asserts they come back clean.  The
oracle sweeps group the 0-containing subsets, plain tuples, into classes
by the divisor masks of P(x) minus {1} and of Z(x) (``prim_mask`` and
``zero_mask``).  The closed form reads only the primitive sets, built once
per class, and the exact verdict only whether ``prim_mask(J) &
~zero_mask(K)`` is 0, the inclusion that the oracle tests order by order,
so each class pair is decided once,
by both sides, and stands for all of its subset pairs.  The vertex-set
checks (disjointness across sizes, containment under scaling) live here
and build each graph they compare once per call.  Each suite imports the
layers it runs when it runs: ``graphs`` only for the vertex-set and counts
suites, ``hadamard`` for the exact side and ``crosschecks`` for the closed
forms only in the oracle suites; ``compprop`` none, nor m's factorization.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from functools import lru_cache
from itertools import combinations
from math import comb, gcd, lcm

from .numtheory import modulus_context
from .primsets import MAX_SUBSETS, PrimitiveSet

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
    from .graphs import build_graph

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
    # C(m-1, n-1) 0-containing n-subsets for each m, C(m_max, n) in all
    if comb(m_max, n) > MAX_SUBSETS:
        raise ValueError(f"oracle{n} has more than {MAX_SUBSETS} subsets to check for m_max = {m_max}")
    from .hadamard import Decision, prim_mask, zero_mask

    for m in range(n, m_max + 1):
        ctx = modulus_context(m)
        subsets = [(0, *t) for t in combinations(range(1, m), n - 1)]
        # the indices of the 0-containing subsets, in enumeration order, in
        # classes by the masks of P(x) and Z(x); both verdicts read only these
        classes: dict[tuple[int, int], list[int]] = {}
        for i, x in enumerate(subsets):
            classes.setdefault((prim_mask(ctx, x), zero_mask(ctx, x)), []).append(i)
        sets = {pj: PrimitiveSet([1, *ctx.orders_of(pj)]) for pj, _ in classes}
        first = None
        for (pj, _), rows in classes.items():
            for (pk, zk), cols in classes.items():
                if rows[0] > cols[-1]:
                    continue  # no pair j <= k in this class pair
                fast = fast_test(m, sets[pj], sets[pk]).decision
                exact = Decision.NOT_HADAMARD if pj & ~zk else Decision.HADAMARD
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
                "j": subsets[j],
                "k": subsets[k],
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
    from .crosschecks import decide_2x2_general

    return _oracle_equivalence(m_max, 2, decide_2x2_general)


def check_oracle_3x3(m_max: int) -> dict | None:
    """The 3x3 test must agree with the exact oracle on every pair of
    0-containing 3-subsets for all moduli up to m_max.

    The test gets P(J) and P(K); the exact verdict is the inclusion of P(J)
    minus {1} in the vanishing set Z(K).  Both are decided once per pair of
    (P(x), Z(x)) classes, and a mismatch reports the first subset pair
    J <= K, in enumeration order, that a pair-by-pair scan would meet.
    """
    from .crosschecks import decide_3x3

    return _oracle_equivalence(m_max, 3, decide_3x3)


def _fold_mismatch(m: int, gd: int, ld: int, gp: int, lp: int) -> dict | None:
    """The first compprop identity the folds break (``compprop_violation``)."""
    for fold, prim, diff in (("lcm", lp, gd), ("gcd", gp, ld)):
        if prim != m // gcd(m, diff):
            return {"fold": fold, "prims": prim, "from_diffs": m // gcd(m, diff)}
    return None


def compprop_violation(m: int, elements: tuple[int, ...]) -> dict | None:
    """Check the p-adic bounds tying differences to primitive sets, for every
    prime dividing m, on an ascending tuple of at least two distinct
    residues mod m.

    With P the primitive set minus {1}, D the differences minus {0} and
    p^e exactly dividing m, the bounds are
      (1) max ord_p(P) <= max(0, e - min ord_p(D))
      (2) min ord_p(P) >= e - max ord_p(D)
      (3) min ord_p(D) >= e - max ord_p(P)
      (4) and when min ord_p(P) >= 1: max ord_p(D) <= e - min ord_p(P).
    No order is negative, so (1) and (3) say max ord_p(P) = max(0, e - min
    ord_p(D)), and (2) and (4) say min ord_p(P) = max(0, e - max ord_p(D)):
    (4) caps it at e - max ord_p(D) when positive, and (2) allows 0 only
    when e <= max ord_p(D).  The gcd and lcm folds gd, ld of D and gp, lp
    of P have these extremes as orders, lp and gp divide m, and
    ord_p(m // gcd(m, g)) = max(0, e - ord_p(g)), so over all primes of m
    the bounds hold exactly when lp == m // gcd(m, gd) (the "lcm" fold)
    and gp == m // gcd(m, ld) (the "gcd" fold); m is never factorized.  A
    violation names the first fold that fails, with both sides.  Fewer than
    two elements, or a repeated one, leave a zero fold and raise ValueError.
    """
    # D = -D, so its positive half has the same p-adic extremes
    diffs = [b - a for a, b in combinations(elements, 2)]
    prims = [m // gcd(m, d) for d in diffs]
    gd, ld, gp, lp = gcd(*diffs), lcm(*diffs), gcd(*prims), lcm(*prims)
    if not gd or not ld:
        raise ValueError(f"compprop needs at least two distinct residues, got {elements}")
    bad = _fold_mismatch(m, gd, ld, gp, lp)
    return bad and {"suite": "compprop", "m": m, "x": elements, **bad}


def check_compprop(m_max: int, samples: int) -> dict | None:
    """Exhaustive sweep over moduli up to m_max and sizes 2..4, then
    `samples` random cases with moduli from max(m_max + 1, 2) to 5000 and
    sizes up to 8, drawn from a fixed seed; samples with m_max >= 5000
    have no modulus to draw, and m_max >= 222 gives more than MAX_SUBSETS
    subsets to check, so both raise ValueError before any work.

    The exhaustive part checks the 0-containing subsets only.  Whether x
    violates a bound depends only on m and its integer differences, which
    every translate of x inside [0, m) shares, and the 0-containing subsets
    come first among the subsets of one (m, size), so the first
    counterexample is the one that a sweep over all subsets finds.  No
    subset builds a modulus context.
    """
    if m_max < 2 and samples < 1:
        raise ValueError("compprop checks nothing unless m_max >= 2 or samples >= 1")
    if samples >= 1 and m_max >= 5000:
        raise ValueError(f"compprop samples moduli above m_max up to 5000, got m_max = {m_max}")
    # C(m-1, size-1) 0-containing subsets for each m and size 2..4, so
    # C(m_max, 2) + C(m_max, 3) + C(m_max, 4) in all
    if sum(comb(m_max, k) for k in (2, 3, 4)) > MAX_SUBSETS:
        raise ValueError(f"compprop has more than {MAX_SUBSETS} subsets to check for m_max = {m_max}")
    for m in range(2, m_max + 1):
        for size in range(2, min(4, m) + 1):
            for tail in combinations(range(1, m), size - 1):
                bad = compprop_violation(m, (0, *tail))
                if bad:
                    return bad
    rng = random.Random(20260810)
    for _ in range(samples):
        # a modulus of 1 has no 2-subset to draw
        m = rng.randint(max(m_max + 1, 2), 5000)
        size = rng.randint(2, min(8, m))
        elems = tuple(sorted(rng.sample(range(m), size)))
        bad = compprop_violation(m, elems)
        if bad:
            return bad
    return None


def check_disjoint(m_values, n_values) -> dict | None:
    """V(G(m,n)) and V(G(m,n')) must be disjoint for n != n'.

    Sizes above m are skipped; a size repeated among the rest raises
    ValueError.  Each G(m,n) is built once, when its first pair comes up.
    """
    from .graphs import build_graph

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
    from .graphs import build_graph

    graph = lru_cache(maxsize=None)(build_graph)
    for m in range(1, m_max + 1):
        for v in range(2, v_max + 1):
            for n in range(1, min(n_max, m) + 1):
                if not graph(m, n).vertices <= graph(v * m, n).vertices:
                    return {"suite": "scaling", "m": m, "v": v, "n": n}
    return None
