"""Pair-by-pair reference for the graph builder.

``fourier_hadamard.graphs.build_graph`` enumerates subsets by divisor
bitmasks, computes Z(K) once per bucket and draws edges by mask inclusion.
This module keeps the plain builder as the independent reference the tests
compare it with: it builds a ``ResidueSet`` and calls ``primitive_set`` for
every 0-containing n-subset, and decides every unordered bucket pair with
``is_hadamard`` on the two witnesses.
"""

from __future__ import annotations

from itertools import combinations

from fourier_hadamard.graphs import (
    CompatGraph,
    VerificationError,
    _require_enumerable,
    _reverify_edges,
)
from fourier_hadamard.hadamard import Decision, SubmatrixSpec, is_hadamard
from fourier_hadamard.primsets import PrimitiveSet, ResidueSet, primitive_set


def build_graph(m: int, n: int) -> CompatGraph:
    """Construct the compatibility graph for modulus m and size n.

    Enumerates the n-subsets of {0..m-1} that contain 0 (shifting leaves
    both Hadamard-ness and primitive sets unchanged, so nothing is lost),
    buckets them by primitive set keeping the lexicographically least
    subset as the witness, tests every unordered bucket pair once, and keeps
    the vertices that appear in at least one passing pair.  Output is
    independent of enumeration order.  Every edge is then re-checked by the
    exact oracle; a failure raises VerificationError.  More than
    MAX_SUBSETS subsets to enumerate raise ValueError up front.
    """
    if n < 1:
        raise ValueError(f"size must be positive, got {n}")
    if n > m:
        raise ValueError(f"size {n} exceeds modulus {m}")
    _require_enumerable(m, n)
    witnesses: dict[PrimitiveSet, ResidueSet] = {}
    for tail in combinations(range(1, m), n - 1):
        subset = ResidueSet(m, (0,) + tail)
        p = primitive_set(subset)
        if p not in witnesses:
            # combinations() yields subsets in lexicographic order, so the
            # first subset seen for a bucket is its least member
            witnesses[p] = subset
    buckets = sorted(witnesses)

    def passes(p: PrimitiveSet, q: PrimitiveSet) -> bool:
        spec = SubmatrixSpec(m, witnesses[p], witnesses[q])
        return is_hadamard(spec).decision is Decision.HADAMARD

    edges = frozenset(
        (p, q)
        for i, p in enumerate(buckets)
        for q in buckets[i:]
        if passes(p, q)
    )
    vertices = frozenset(v for pair in edges for v in pair)
    representatives = {v: witnesses[v] for v in sorted(vertices)}
    graph = CompatGraph(m, n, vertices, edges, representatives)
    if bad := _reverify_edges(graph):
        raise VerificationError(
            f"edge {bad[0]} -- {bad[1]} of G({m},{n}) failed exact re-verification"
        )
    return graph
