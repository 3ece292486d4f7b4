"""Compatibility graphs: which primitive sets pair into Hadamard submatrices.

For a modulus m and size n, the graph has a vertex for every primitive set
realized by the row set of some n-by-n Hadamard submatrix of the m-by-m
Fourier matrix, and an edge (loops allowed) between two primitive sets
whenever some Hadamard submatrix realizes them together.  H_(J,K) is
Hadamard exactly when P(J) minus {1} is a subset of Z(K), the orders s > 1
at which K(z) vanishes, so the builder works on divisor bitmasks: it
enumerates the 0-containing subsets once, leaving out those whose mask
fails the size-divisor or the Lam-Leung screen (no such subset is on an
edge), keeps the least subset of each primitive-set mask as the bucket's
witness, computes Z of each witness once with ``hadamard.zero_mask``, a
mask over the same bits, and draws an edge wherever one mask lies inside
the other's Z.  The exact oracle then re-checks every edge.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd
from operator import or_

from .hadamard import Decision, SubmatrixSpec, is_hadamard_exact, zero_mask
from .numtheory import ModulusContext, modulus_context
from .primsets import (
    MAX_SUBSETS,
    PrimitiveSet,
    Record,
    ResidueSet,
    VerificationError,
    primitive_set,
    size_divisor,
)

__all__ = [
    "CompatGraph",
    "GraphFormatError",
    "build_graph",
    "has_edge",
    "dominant_vertices",
    "classify_submatrix_size",
    "export_dot",
    "export_json",
    "import_json",
]

JSON_FORMAT = "compatgraph/1"


class GraphFormatError(ValueError):
    """A serialized graph violated the schema or a graph invariant."""


class CompatGraph(Record):
    """Vertices, undirected edges (loops allowed), and one canonical witness
    selection per vertex.

    Fields, in order: ``m`` and ``n`` (int); ``vertices``
    (frozenset[PrimitiveSet]); ``edges`` (frozenset of pairs (p, q) of
    PrimitiveSets with p <= q); ``representatives`` (dict from each vertex
    to its witness ResidueSet).  Vertex membership is derived from edge
    existence, so isolated vertices cannot occur.
    """

    __slots__ = ("m", "n", "vertices", "edges", "representatives")


def build_graph(m: int, n: int) -> CompatGraph:
    """Construct the compatibility graph for modulus m and size n.

    Buckets the n-subsets of {0..m-1} that contain 0 (shifting leaves
    both Hadamard-ness and primitive sets unchanged, so nothing is lost) by
    the divisor bitmasks of their primitive sets (for n = 2, read off the
    divisors of m), keeps the lexicographically least subset of each mask
    as the bucket's witness (a plain tuple; only a vertex's becomes a
    ResidueSet), and computes Z of each witness once with ``zero_mask``.
    Only masks that pass two necessary conditions for lying on an edge
    (see ``_screen``) are walked and kept, so no other bucket is built or
    has its Z computed.  Buckets p <= q are joined iff the mask of p lies
    inside Z(q), and the vertices are the buckets on an edge (for n = 1,
    the loop at {1}: no special case).  Every edge is then re-checked by
    the exact oracle; a failure raises VerificationError.
    More than MAX_SUBSETS subsets or witness differences raise ValueError
    up front.
    """
    if m < 1:
        raise ValueError(f"modulus must be positive, got {m}")
    if n < 1:
        raise ValueError(f"size must be positive, got {n}")
    if n > m:
        raise ValueError(f"size {n} exceeds modulus {m}")
    _require_enumerable(m, n)
    ctx = modulus_context(m)
    # (P, mask of P, witness), sorted by primitive set; the sets are
    # distinct, so the sort never compares further
    buckets = sorted(
        (PrimitiveSet([1, *ctx.orders_of(mask)]), mask, least)
        for mask, least in _least_members(ctx, n).items()
    )
    zeros = [zero_mask(ctx, k) for _, _, k in buckets]
    # p joins q iff mask(p) & ~Z(q) == 0; many buckets share one Z, so the
    # buckets inside each distinct Z are listed once
    inside: dict[int, list[PrimitiveSet]] = {}
    for zero in zeros:
        if zero not in inside:
            inside[zero] = [p for p, mask, _ in buckets if not mask & ~zero]
    edges = frozenset(
        (p, q)
        for (q, _, _), zero in zip(buckets, zeros)
        for p in inside[zero]
        if p <= q
    )
    vertices = frozenset(v for pair in edges for v in pair)
    representatives = {p: ResidueSet(m, k) for p, _, k in buckets if p in vertices}
    graph = CompatGraph(m, n, vertices, edges, representatives)
    if bad := _reverify_edges(graph):
        raise VerificationError(
            f"edge {bad[0]} -- {bad[1]} of G({m},{n}) failed exact re-verification"
        )
    return graph


def _least_members(ctx: ModulusContext, n: int) -> dict[int, tuple[int, ...]]:
    """The lexicographically least 0-containing n-subset of each primitive-set
    mask that the n-subsets of {0..m-1} realize and that passes
    ``_screen``, keyed by mask.

    The gcds of m with 0 < d < m are exactly the divisors g < m of m, so
    bit[g] over those g is every bit a mask can hold.  For n = 2 the mask
    of {0, d} is bit[gcd(m, d)], so each g is one bucket and {0, g} its
    least member.  If 2n > m, x and x + d meet for every d, so every bit is
    set and the one bucket's least member is (0, 1, ..., n-1).  Otherwise
    a subset's mask ORs table[b - a] = bit[gcd(m, b - a)] over its pairs
    a < b, as ``hadamard.prim_mask`` does, and the least member (0, a_1, ...) of
    a bucket has a_1 | m: some unit u has u * a_1 = g = gcd(m, a_1) (lift
    the unit a_1 / g mod m / g and invert it), multiplying by u keeps every
    gcd(m, b - a), and u * x holds 0 and g, so it would be smaller if
    g < a_1.  Nor does it hold m - 1: then x + 1 mod m holds 0 and 1 and
    has the same mask, and it is smaller, since if x starts
    0, 1, ..., j - 1, a_j with a_j > j, then x + 1 starts 0, 1, ..., j, and
    if x is 0, 1, ..., n - 2, m - 1, then x + 1 is 0, 1, ..., n - 1, where
    n - 1 < m - 1.  So a_1 runs over the g, every element stays below
    m - 1, and the walk extends each path depth first: near[c - lo],
    lo = path[-1] + 1, is the mask of path + (c,), so that of
    path + (c, c') is near[c - lo] | near[c' - lo] | table[c' - c].  A
    prefix's mask is contained in the mask of every extension, and a
    screen failed by a mask is failed by every mask holding it, so a
    prefix that fails is not extended: no mask that passes loses a member,
    and the least member of each keeps every prefix.  At n - 1 elements
    near holds whole subsets' masks, met in lexicographic order, so each
    mask keeps the first subset that shows it; the ones that fail are
    dropped at the end.  The recursion is n - 1 deep and memory O(n m).
    """
    m = ctx.m
    if n == 1:
        return {0: (0,)}
    bit = ctx.bit
    passes = _screen(ctx, n)
    if n == 2:
        return {mask: (0, g) for g, mask in bit.items() if passes(mask)}
    if 2 * n > m:
        mask = (1 << len(bit)) - 1
        return {mask: tuple(range(n))} if passes(mask) else {}
    table = [0, *(bit[gcd(m, d)] for d in range(1, m))]
    least = {}

    def walk(path: tuple[int, ...], near: list[int]) -> None:
        lo = path[-1] + 1
        if len(path) == n - 1:
            for c, mask in enumerate(near, lo):
                if mask not in least:
                    least[mask] = (*path, c)
            return
        # c leaves room for the n - 1 - len(path) elements after it, the
        # last of them at most m - 2
        for c in range(lo, m - n + len(path)):
            j = c - lo
            if passes(near[j]):
                row = map(or_, near[j + 1 :], table[1 : m - 1 - c])
                walk((*path, c), list(map(near[j].__or__, row)))

    for t, mask in bit.items():
        if passes(mask):
            row = map(or_, table[t + 1 : m - 1], table[1 : m - 1 - t])
            walk((0, t), list(map(mask.__or__, row)))
    return {mask: w for mask, w in least.items() if passes(mask)}


def _screen(ctx: ModulusContext, n: int):
    """The test that the primitive-set mask of a bucket of G(m,n) passes
    whenever the bucket can lie on an edge, as a function of the mask.

    H_(K,J) is the transpose of H_(J,K), so both ends of an edge are row
    sets J of n-by-n Hadamard submatrices, and every s in P(J) minus {1} is
    then in Z(K) for some n-subset K.  Two facts follow, and a mask fails
    if either does not hold for its orders:
    - K(zeta_s) = 0 is a vanishing sum of n s-th roots of unity, so n is a
      sum of primes of s (Lam and Leung): the mask lies inside
      ``ctx.sum_mask(n)``, one AND with its complement;
    - the size divisor C(P(J)), the product of p over the powers p^a in
      P(J), divides n: the paper's screen, read through ``size_divisor``.
    Adding bits never passes a failing mask.
    """
    outside = ~ctx.sum_mask(n)

    # a walk asks about the same few hundred masks many times over
    @lru_cache(maxsize=None)
    def passes(mask: int) -> bool:
        return not mask & outside and n % size_divisor(PrimitiveSet([1, *ctx.orders_of(mask)])) == 0

    return passes


def _require_enumerable(m: int, n: int) -> None:
    """Raise ValueError when C(m-1, n-1) 0-containing n-subsets or the
    n(n-1)/2 differences that re-verification takes of a witness exceed
    MAX_SUBSETS.  Subsets are counted only when 2n <= m: otherwise
    ``_least_members`` enumerates none.  Then m - n >= n, so the partial
    products C(m-n+i, i) at least double with i and end at C(m-1, n-1),
    and the loop stops within a few dozen steps, however large m is."""
    if 2 * n <= m:
        count = 1
        for i in range(1, n):
            count = count * (m - n + i) // i
            if count > MAX_SUBSETS:
                raise ValueError(f"G({m},{n}) has more than {MAX_SUBSETS} subsets to enumerate")
    if n * (n - 1) // 2 > MAX_SUBSETS:
        raise ValueError(f"G({m},{n}) has more than {MAX_SUBSETS} differences per witness")


def _reverify_edges(graph: CompatGraph) -> tuple[PrimitiveSet, PrimitiveSet] | None:
    """The first edge, in sorted order, whose witnesses fail the exact
    oracle, or None when every edge passes."""
    for p, q in sorted(graph.edges):
        spec = SubmatrixSpec(
            graph.m, graph.representatives[p], graph.representatives[q]
        )
        if is_hadamard_exact(spec).decision is not Decision.HADAMARD:
            return p, q
    return None


def has_edge(graph: CompatGraph, p: PrimitiveSet, q: PrimitiveSet) -> bool:
    """Whether {p, q} is an edge; order-insensitive, loops included."""
    if q < p:
        p, q = q, p
    return (p, q) in graph.edges


def dominant_vertices(graph: CompatGraph) -> list[PrimitiveSet]:
    """Vertices adjacent to every vertex of the graph, loops counting for
    self-adjacency."""
    return [
        v
        for v in sorted(graph.vertices)
        if all(has_edge(graph, v, u) for u in graph.vertices)
    ]


def classify_submatrix_size(x, m_candidates) -> int:
    """Search candidate moduli for a compatibility graph having x as a vertex
    and return that graph's size n, or 0 when no candidate matches.

    The size is unique across all moduli and sizes, so the first hit is the
    answer.  Candidates whose divisors do not contain x are skipped, and only
    sizes n that x's size divisor divides and with C(n,2) >= |x| - 1 (one
    pair of rows per element of x beyond 1) are built; both are necessary.
    A 0 is only "not found within these candidates", not a proof that x
    never occurs.
    """
    elements = sorted(set(x))
    if not elements:
        raise ValueError("the divisor set must be nonempty")
    if elements[0] < 1:
        raise ValueError("the divisor set must contain positive integers only")
    candidates = list(m_candidates)
    if not candidates:
        raise ValueError("at least one candidate modulus is required")
    for m in candidates:
        if m < 1:
            raise ValueError(f"candidate modulus must be positive, got {m}")
    if 1 not in elements:
        return 0  # every primitive set contains 1
    target = PrimitiveSet(elements)
    divisor = size_divisor(target)
    for m in candidates:
        if any(m % e for e in elements):
            continue
        for n in range(divisor, m + 1, divisor):
            pairs = n * (n - 1) // 2
            if pairs >= len(elements) - 1 and target in build_graph(m, n).vertices:
                return n
    return 0


def export_dot(graph: CompatGraph) -> str:
    """Render as DOT: sorted nodes labeled {1,2,...}, then sorted undirected
    edges, loops as self-edges.  Output is byte-stable."""
    lines = [f'graph "G({graph.m},{graph.n})" {{']
    for v in sorted(graph.vertices):
        lines.append(f'  "{v}";')
    for p, q in sorted(graph.edges):
        lines.append(f'  "{p}" -- "{q}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _key(v: PrimitiveSet) -> str:
    return ",".join(map(str, v.elements))


def export_json(graph: CompatGraph) -> str:
    """Canonical JSON serialization; round-trips through import_json."""
    import json

    doc = {
        "format": JSON_FORMAT,
        "m": graph.m,
        "n": graph.n,
        "vertices": [list(v.elements) for v in sorted(graph.vertices)],
        "edges": [
            [list(p.elements), list(q.elements)] for p, q in sorted(graph.edges)
        ],
        "representatives": {
            _key(v): list(graph.representatives[v].elements)
            for v in sorted(graph.vertices)
        },
    }
    # compact one-line form: canonical bytes for golden-file comparison
    return json.dumps(doc, separators=(",", ":")) + "\n"


def _expect_int_list(value, where: str) -> list[int]:
    if not isinstance(value, list) or not all(
        isinstance(e, int) and not isinstance(e, bool) for e in value
    ):
        raise GraphFormatError(f"{where}: expected a list of integers")
    return value


def import_json(text: str) -> CompatGraph:
    """Parse a serialized graph, re-validating every invariant.

    Schema problems and invariant violations raise GraphFormatError naming
    the offending location.
    """
    import json

    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphFormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise GraphFormatError("top level: expected an object")
    if doc.get("format") != JSON_FORMAT:
        raise GraphFormatError(f"format: expected {JSON_FORMAT!r}, got {doc.get('format')!r}")
    for field in ("m", "n", "vertices", "edges", "representatives"):
        if field not in doc:
            raise GraphFormatError(f"{field}: missing")
    m, n = doc["m"], doc["n"]
    if not isinstance(m, int) or isinstance(m, bool) or m < 1:
        raise GraphFormatError("m: expected a positive integer")
    if not isinstance(n, int) or isinstance(n, bool) or not 1 <= n <= m:
        raise GraphFormatError("n: expected an integer in [1, m]")

    if not isinstance(doc["vertices"], list):
        raise GraphFormatError("vertices: expected a list")
    vertices: list[PrimitiveSet] = []
    for i, raw in enumerate(doc["vertices"]):
        where = f"vertices[{i}]"
        elems = _expect_int_list(raw, where)
        try:
            v = PrimitiveSet(elems)
        except ValueError as exc:
            raise GraphFormatError(f"{where}: {exc}") from exc
        if list(v.elements) != elems:
            raise GraphFormatError(f"{where}: elements must be sorted and distinct")
        if any(m % e for e in v.elements):
            raise GraphFormatError(f"{where}: {v} has elements not dividing m={m}")
        vertices.append(v)
    vertex_set = frozenset(vertices)
    if len(vertex_set) != len(vertices):
        raise GraphFormatError("vertices: duplicate entries")

    if not isinstance(doc["edges"], list):
        raise GraphFormatError("edges: expected a list")
    edges: set[tuple[PrimitiveSet, PrimitiveSet]] = set()
    for i, raw in enumerate(doc["edges"]):
        where = f"edges[{i}]"
        if not isinstance(raw, list) or len(raw) != 2:
            raise GraphFormatError(f"{where}: expected a pair of vertices")
        ends = [_expect_int_list(end, f"{where}[{k}]") for k, end in enumerate(raw)]
        try:
            p, q = map(PrimitiveSet, ends)
        except ValueError as exc:
            raise GraphFormatError(f"{where}: {exc}") from exc
        if p not in vertex_set:
            raise GraphFormatError(f"{where}: endpoint {p} is not a vertex")
        if q not in vertex_set:
            raise GraphFormatError(f"{where}: endpoint {q} is not a vertex")
        if q < p:
            p, q = q, p
        edges.add((p, q))

    covered = {v for pair in edges for v in pair}
    for v in sorted(vertex_set):
        if v not in covered:
            raise GraphFormatError(f"vertices: {v} has no incident edge")

    if not isinstance(doc["representatives"], dict):
        raise GraphFormatError("representatives: expected an object")
    representatives: dict[PrimitiveSet, ResidueSet] = {}
    for key, raw in doc["representatives"].items():
        where = f"representatives[{key!r}]"
        try:
            v = PrimitiveSet(int(part) for part in key.split(","))
        except ValueError as exc:
            raise GraphFormatError(f"{where}: bad key: {exc}") from exc
        # one spelling per vertex, so that no two keys name the same one
        if key != _key(v):
            raise GraphFormatError(f"{where}: key is not canonical, expected {_key(v)!r}")
        if v not in vertex_set:
            raise GraphFormatError(f"{where}: {v} is not a vertex")
        elems = _expect_int_list(raw, where)
        try:
            rep = ResidueSet(m, tuple(elems))
        except ValueError as exc:
            raise GraphFormatError(f"{where}: {exc}") from exc
        if len(rep) != n:
            raise GraphFormatError(f"{where}: witness size {len(rep)} != n={n}")
        if primitive_set(rep) != v:
            raise GraphFormatError(f"{where}: witness has a different primitive set")
        representatives[v] = rep
    for v in sorted(vertex_set):
        if v not in representatives:
            raise GraphFormatError(f"representatives: missing entry for {v}")

    graph = CompatGraph(m, n, vertex_set, frozenset(edges), representatives)
    if bad := _reverify_edges(graph):
        raise GraphFormatError(
            f"edges: {bad[0]} -- {bad[1]}: witnesses do not form a Hadamard submatrix"
        )
    return graph
