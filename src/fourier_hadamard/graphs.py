"""Compatibility graphs: which primitive sets pair into Hadamard submatrices.

For a modulus m and size n, the graph has a vertex for every primitive set
realized by the row set of some n-by-n Hadamard submatrix of the m-by-m
Fourier matrix, and an edge (loops allowed) between two primitive sets
whenever some Hadamard submatrix realizes them together.  Whether a pair of
selections forms a Hadamard submatrix depends only on their primitive sets,
so one representative per primitive-set class decides the whole class; that
is the pruning that makes construction fast compared to testing every pair
of selections.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations

from .hadamard import Decision, SubmatrixSpec, is_hadamard, is_hadamard_exact
from .primsets import PrimitiveSet, ResidueSet, primitive_set, size_divisor

__all__ = [
    "CompatGraph",
    "GraphFormatError",
    "VerificationError",
    "build_graph",
    "has_edge",
    "dominant_vertices",
    "classify_submatrix_size",
    "export_dot",
    "export_json",
    "import_json",
]

JSON_FORMAT = "compatgraph/1"

# build_graph refuses to enumerate more 0-containing subsets than this,
# about 15 minutes of work at 9 us per subset
MAX_SUBSETS = 10**8


class GraphFormatError(ValueError):
    """A serialized graph violated the schema or a graph invariant."""


class VerificationError(RuntimeError):
    """An internal consistency check failed; indicates a defect, not bad input."""


@dataclass(frozen=True)
class CompatGraph:
    """Vertices, undirected edges (loops allowed), and one canonical witness
    selection per vertex.

    Edges are stored as ordered pairs (p, q) with p <= q.  Vertex membership
    is derived from edge existence, so isolated vertices cannot occur.
    """

    m: int
    n: int
    vertices: frozenset[PrimitiveSet]
    edges: frozenset[tuple[PrimitiveSet, PrimitiveSet]]
    representatives: dict[PrimitiveSet, ResidueSet]


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


def _require_enumerable(m: int, n: int) -> None:
    """Raise ValueError when C(m-1, n-1), the number of 0-containing
    n-subsets, exceeds MAX_SUBSETS.  With k = min(n-1, m-n) the partial
    products C(m-1-k+i, i) at least double with i and end at C(m-1, n-1), so
    the loop stops within a few dozen steps, however large m is."""
    k = min(n - 1, m - n)
    count = 1
    for i in range(1, k + 1):
        count = count * (m - 1 - k + i) // i
        if count > MAX_SUBSETS:
            raise ValueError(f"G({m},{n}) has more than {MAX_SUBSETS} subsets to enumerate")


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
    if 1 not in elements:
        return 0  # every primitive set contains 1
    target = PrimitiveSet(elements)
    divisor = size_divisor(target)
    for m in candidates:
        if m < 1:
            raise ValueError(f"candidate modulus must be positive, got {m}")
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
    if not isinstance(m, int) or m < 1:
        raise GraphFormatError("m: expected a positive integer")
    if not isinstance(n, int) or not 1 <= n <= m:
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
        try:
            p = PrimitiveSet(_expect_int_list(raw[0], f"{where}[0]"))
            q = PrimitiveSet(_expect_int_list(raw[1], f"{where}[1]"))
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
