import json
import re
import time
import tracemalloc
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

import reference_builder
from fourier_hadamard import graphs
from fourier_hadamard.graphs import (
    GraphFormatError,
    VerificationError,
    build_graph,
    classify_submatrix_size,
    dominant_vertices,
    export_dot,
    export_json,
    has_edge,
    import_json,
)
from fourier_hadamard.numtheory import divisors, modulus_context
from fourier_hadamard.primsets import (
    PrimitiveSet,
    ResidueSet,
    interned_primitive_set,
    primitive_set,
)
from fourier_hadamard.sweeps import check_disjoint, check_scaling
from record_atlas import CASES as ATLAS_CASES


def pset(*elements):
    return PrimitiveSet(elements)


def test_power_of_two_counts():
    for q in range(1, 6):
        g = build_graph(2**q, 2)
        assert len(g.vertices) == q
        assert len(g.edges) == (q + 1) // 2


def test_twice_prime_structure():
    for p in (3, 7):
        g = build_graph(2 * p, 2)
        assert g.vertices == frozenset({pset(1, 2), pset(1, 2 * p)})
        assert g.edges == frozenset(
            {(pset(1, 2), pset(1, 2)), (pset(1, 2), pset(1, 2 * p))}
        )


def test_full_matrix_is_single_loop_vertex():
    from fourier_hadamard.numtheory import divisors

    g = build_graph(12, 12)
    v = pset(*divisors(12))
    assert g.vertices == frozenset({v})
    assert g.edges == frozenset({(v, v)})


def test_empty_graph():
    g = build_graph(7, 2)
    assert not g.vertices and not g.edges and not g.representatives


def test_build_graph_validation():
    with pytest.raises(ValueError):
        build_graph(4, 5)
    with pytest.raises(ValueError):
        build_graph(4, 0)


def test_subset_guard_bounds():
    # G(60,7), the largest graph the project plans to build, is admitted;
    # the guard only counts, so nothing is built here
    assert comb(59, 6) == 45_057_474 <= graphs.MAX_SUBSETS
    graphs._require_enumerable(60, 7)
    # with 2n > m there is one bucket and nothing to enumerate, so the
    # count of subsets refuses only graphs with 2n <= m
    for m in range(1, 40):
        for n in range(1, m + 1):
            if 2 * n <= m and comb(m - 1, n - 1) > graphs.MAX_SUBSETS:
                with pytest.raises(ValueError, match="subsets to enumerate"):
                    graphs._require_enumerable(m, n)
            else:
                graphs._require_enumerable(m, n)


def test_difference_guard_bounds():
    # G(m,m) has one subset, so only its n(n-1)/2 differences can refuse it:
    # 99,991,011 at n = 14142 and 100,005,153 at n = 14143
    graphs._require_enumerable(14142, 14142)
    message = r"^G\(14143,14143\) has more than 100000000 differences per witness$"
    with pytest.raises(ValueError, match=message):
        graphs._require_enumerable(14143, 14143)
    start = time.perf_counter()
    with pytest.raises(ValueError, match=message):
        build_graph(14143, 14143)
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("n", range(3, 7))
def test_least_members_match_brute_force(n):
    # every bucket, not only the vertices: the first subset of each
    # primitive set in lexicographic order, for m <= 30 and at most 60,000
    # 0-containing subsets; also both facts the walk rests on, a_1 | m and
    # one bucket when 2n > m
    for m in range(n, 31):
        if comb(m - 1, n - 1) > 60_000:
            continue
        first = {}
        for tail in combinations(range(1, m), n - 1):
            first.setdefault(primitive_set(ResidueSet(m, (0, *tail))), (0, *tail))
        ctx = modulus_context(m)
        least = graphs._least_members(ctx, n)
        assert {interned_primitive_set(ctx, mask): w for mask, w in least.items()} == first
        assert all(m % w[1] == 0 for w in least.values())
        if 2 * n > m:
            assert len(least) == 1


def test_edge_membership():
    g = build_graph(180, 2)
    assert has_edge(g, pset(1, 20), pset(1, 18))
    assert has_edge(g, pset(1, 18), pset(1, 20))  # order-insensitive
    assert not has_edge(g, pset(1, 18), pset(1, 6))
    assert not has_edge(g, pset(1, 7), pset(1, 18))  # not even a vertex


def test_vertices_all_covered_by_edges():
    for m in range(2, 13):
        for n in (1, 2, 3):
            if n > m:
                continue
            g = build_graph(m, n)
            covered = {v for e in g.edges for v in e}
            assert covered == g.vertices


def test_dominant_vertices():
    assert dominant_vertices(build_graph(16, 2)) == []
    g1 = build_graph(5, 1)
    assert dominant_vertices(g1) == [pset(1)]


def test_disjoint_vertices():
    assert check_disjoint([12], [2, 3]) is None
    assert check_disjoint([21], [2, 3]) is None
    with pytest.raises(ValueError):
        check_disjoint([12], [2, 2])


def test_scaling_containment():
    # check_scaling sweeps every m' <= m and 2 <= v' <= v, so these cover
    # (m, v, n) = (6, 2, 2) and (4, 3, 2); v = 1 compares nothing
    assert check_scaling(6, 2, 2) is None
    with pytest.raises(ValueError, match="scaling checks nothing"):
        check_scaling(9, 1, 2)
    assert check_scaling(4, 3, 2) is None


def test_classify():
    assert classify_submatrix_size({1, 3}, [12, 21]) == 3
    assert classify_submatrix_size({1, 3, 21}, [21]) == 3
    assert classify_submatrix_size({1}, [5]) == 1
    # candidates whose divisors cannot contain the set are skipped
    assert classify_submatrix_size({1, 4}, [6]) == 0
    # sets without 1 are never primitive sets
    assert classify_submatrix_size({2, 4}, [8]) == 0
    with pytest.raises(ValueError):
        classify_submatrix_size({1, 3}, [])
    with pytest.raises(ValueError):
        classify_submatrix_size(set(), [12])
    with pytest.raises(ValueError):
        classify_submatrix_size({0, 1}, [12])


@pytest.mark.parametrize("candidates", [[2, 0], [0, 2], [12, -3]])
def test_classify_rejects_every_bad_candidate_before_building(monkeypatch, candidates):
    # {1,2} is a vertex of G(2,2), so a search that checked candidates only
    # as it reached them would return before seeing the bad one
    monkeypatch.setattr(graphs, "build_graph", None)
    bad = next(m for m in candidates if m < 1)
    with pytest.raises(ValueError, match=f"^candidate modulus must be positive, got {bad}$"):
        classify_submatrix_size({1, 2}, candidates)


def test_export_dot_golden():
    assert export_dot(build_graph(6, 2)) == (
        'graph "G(6,2)" {\n'
        '  "{1,2}";\n'
        '  "{1,6}";\n'
        '  "{1,2}" -- "{1,2}";\n'
        '  "{1,2}" -- "{1,6}";\n'
        "}\n"
    )
    assert export_dot(build_graph(7, 2)) == 'graph "G(7,2)" {\n}\n'


def test_export_json_golden():
    text = export_json(build_graph(6, 2))
    assert text == (
        '{"format":"compatgraph/1","m":6,"n":2,'
        '"vertices":[[1,2],[1,6]],'
        '"edges":[[[1,2],[1,2]],[[1,2],[1,6]]],'
        '"representatives":{"1,2":[0,3],"1,6":[0,1]}}\n'
    )


def test_json_roundtrip():
    for m, n in ((12, 2), (6, 2), (7, 2), (12, 3)):
        g = build_graph(m, n)
        assert import_json(export_json(g)) == g


def test_import_json_rejects_bad_documents():
    g = build_graph(16, 2)
    text = export_json(g)

    with pytest.raises(GraphFormatError):
        import_json("{not json")
    with pytest.raises(GraphFormatError):
        import_json(json.dumps({"format": "other/1"}))

    doc = json.loads(text)
    doc["edges"].append([[1, 3], [1, 2]])  # unknown endpoint
    with pytest.raises(GraphFormatError, match="not a vertex"):
        import_json(json.dumps(doc))

    doc = json.loads(text)
    doc["vertices"][0] = [2, 4]  # primitive sets must contain 1
    with pytest.raises(GraphFormatError, match="vertices"):
        import_json(json.dumps(doc))

    doc = json.loads(text)
    del doc["representatives"]["1,2"]
    with pytest.raises(GraphFormatError, match="missing entry"):
        import_json(json.dumps(doc))

    doc = json.loads(text)
    doc["representatives"]["1,2"] = [0, 4]  # wrong primitive set
    with pytest.raises(GraphFormatError, match="different primitive set"):
        import_json(json.dumps(doc))

    # structurally valid but incompatible pair: must fail re-verification
    doc = json.loads(text)
    doc["edges"].append([[1, 2], [1, 4]])
    with pytest.raises(
        GraphFormatError,
        match=r"^edges: \{1,2\} -- \{1,4\}: witnesses do not form a Hadamard submatrix$",
    ):
        import_json(json.dumps(doc))


def _doc_g6_2():
    # {"m":6,"n":2,"vertices":[[1,2],[1,6]],
    #  "edges":[[[1,2],[1,2]],[[1,2],[1,6]]],
    #  "representatives":{"1,2":[0,3],"1,6":[0,1]}}
    return json.loads(export_json(build_graph(6, 2)))


def _replaced(*keys, value):
    """The G(6,2) document with the entry at doc[keys[0]][keys[1]]...
    set to value, or deleted when value is None."""
    doc = _doc_g6_2()
    *outer, last = keys
    target = doc
    for key in outer:
        target = target[key]
    if value is None:
        del target[last]
    else:
        target[last] = value
    return json.dumps(doc)


def _appended(field, value):
    doc = _doc_g6_2()
    doc[field].append(value)
    return json.dumps(doc)


# one malformed G(6,2) document per rejecting branch of import_json, with
# the location its message starts with
MALFORMED = [
    ("{not json", "not valid JSON: "),
    ("[]", "top level: expected an object"),
    (_replaced("format", value="other/1"), "format: expected 'compatgraph/1', got 'other/1'"),
    (_replaced("edges", value=None), "edges: missing"),
    (_replaced("m", value=0), "m: expected a positive integer"),
    (_replaced("m", value="6"), "m: expected a positive integer"),
    (_replaced("m", value=True), "m: expected a positive integer"),
    (_replaced("n", value=7), "n: expected an integer in [1, m]"),
    (_replaced("n", value=True), "n: expected an integer in [1, m]"),
    (_replaced("vertices", value={}), "vertices: expected a list"),
    (_replaced("vertices", 0, value=[1, True]), "vertices[0]: expected a list of integers"),
    (_replaced("vertices", 0, value=[2, 4]), "vertices[0]: a primitive set always contains 1"),
    (_replaced("vertices", 1, value=[6, 1]), "vertices[1]: elements must be sorted and distinct"),
    (_replaced("vertices", 1, value=[1, 4]), "vertices[1]: {1,4} has elements not dividing m=6"),
    (_appended("vertices", [1, 2]), "vertices: duplicate entries"),
    (_replaced("edges", value={}), "edges: expected a list"),
    (_replaced("edges", 0, value=[[1, 2]]), "edges[0]: expected a pair of vertices"),
    (_replaced("edges", 0, value=[[1, 2], "x"]), "edges[0][1]: expected a list of integers"),
    (_replaced("edges", 0, value=[[2], [1, 2]]), "edges[0]: a primitive set always contains 1"),
    (_appended("edges", [[1, 3], [1, 2]]), "edges[2]: endpoint {1,3} is not a vertex"),
    (_appended("edges", [[1, 2], [1, 3]]), "edges[2]: endpoint {1,3} is not a vertex"),
    (_replaced("representatives", value=[]), "representatives: expected an object"),
    (_replaced("representatives", "x", value=[0, 1]), "representatives['x']: bad key: "),
    (_replaced("representatives", "1,3", value=[0, 2]),
     "representatives['1,3']: {1,3} is not a vertex"),
    (_replaced("representatives", "1,2", value="x"),
     "representatives['1,2']: expected a list of integers"),
    (_replaced("representatives", "1,2", value=[0, 6]),
     "representatives['1,2']: residues (0, 6) out of range"),
    (_replaced("representatives", "1,2", value=[3]),
     "representatives['1,2']: witness size 1 != n=2"),
    (_replaced("representatives", "1,2", value=[0, 1]),
     "representatives['1,2']: witness has a different primitive set"),
    (_replaced("representatives", "1,6", value=None), "representatives: missing entry for {1,6}"),
    (_appended("edges", [[1, 6], [1, 6]]), "edges: {1,6} -- {1,6}: witnesses do not form"),
]


@pytest.mark.parametrize(
    "text, location", MALFORMED, ids=[loc.partition(":")[0] for _, loc in MALFORMED]
)
def test_import_json_names_the_location(text, location):
    with pytest.raises(GraphFormatError, match="^" + re.escape(location)):
        import_json(text)


def test_import_json_orders_each_edge():
    doc = _doc_g6_2()
    doc["edges"][1].reverse()  # [{1,6}, {1,2}] loads as ({1,2}, {1,6})
    assert import_json(json.dumps(doc)) == build_graph(6, 2)


def test_import_json_rejects_isolated_vertex():
    doc = json.loads(export_json(build_graph(6, 2)))
    doc["vertices"].append([1, 3])
    doc["representatives"]["1,3"] = [0, 2]
    with pytest.raises(GraphFormatError, match="no incident edge"):
        import_json(json.dumps(doc))


def test_build_determinism():
    assert export_json(build_graph(30, 3)) == export_json(build_graph(30, 3))
    assert export_dot(build_graph(30, 3)) == export_dot(build_graph(30, 3))


def test_build_graph_reverification_catches_wrong_edges(monkeypatch):
    # a pair phase that passes every pair must be caught by the exact
    # re-check, naming the first wrong edge in sorted order; a Z(K) holding
    # every order puts every bucket inside every other
    def everything(k):
        return frozenset(divisors(k.modulus)[1:])

    monkeypatch.setattr(graphs, "vanishing_set", everything)
    with pytest.raises(
        VerificationError,
        match=r"^edge \{1,2\} -- \{1,3\} of G\(6,2\) failed exact re-verification$",
    ):
        build_graph(6, 2)


# Every (m, n) with m <= 60 and n <= 6 that the atlas does not pin, as long
# as it has at most 60,000 0-containing subsets, by n: the reference builder
# takes about 0.4 s at that size.
BEYOND_ATLAS = {
    n: [
        m
        for m in range(n, 61)
        if (m, n) not in ATLAS_CASES and comb(m - 1, n - 1) <= 60_000
    ]
    for n in range(1, 7)
}


# 60 derandomized draws, n uniform in 1..6 (m up to 37 for n = 5 and 25 for
# n = 6), about 4 s in all on a 2-core machine
@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.integers(1, 6).flatmap(
    lambda n: st.tuples(st.sampled_from(BEYOND_ATLAS[n]), st.just(n))))
def test_build_graph_matches_reference_beyond_atlas(case):
    m, n = case
    assert export_json(build_graph(m, n)) == export_json(
        reference_builder.build_graph(m, n)
    )


def test_build_graph_matches_reference_on_g1100_1100():
    # 2n > m: the one bucket and its witness (0, 1, ..., 1099) are returned
    # without a walk, against the reference's one subset 1100 elements deep
    assert export_json(build_graph(1100, 1100)) == export_json(
        reference_builder.build_graph(1100, 1100)
    )


@pytest.mark.parametrize("m", [997, 1024, 2310, 4096, 5040])
def test_g_m_2_matches_reference(m):
    # G(m,2) is read off the divisors of m, with no enumeration
    assert export_json(build_graph(m, 2)) == export_json(reference_builder.build_graph(m, 2))


# the first six have 2n > m and one bucket, read off without a walk; G(18,9)
# and G(20,10) walk 8 and 9 elements deep; about 4 s in all
@pytest.mark.parametrize(
    "m, n", [(30, 28), (40, 37), (24, 20), (26, 23), (33, 30), (20, 17), (18, 9), (20, 10)]
)
def test_long_prefix_graphs_match_reference(m, n):
    assert export_json(build_graph(m, n)) == export_json(reference_builder.build_graph(m, n))


def test_g_m_2_allocates_no_table():
    # one bucket per divisor of 10^7 + 1 = 11 * 909091; a table of one
    # entry per residue would take about 80 MB
    tracemalloc.start()
    try:
        graph = build_graph(10**7 + 1, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert not graph.edges  # m is odd, so no 2x2 submatrix is Hadamard


@pytest.mark.parametrize("m, n", [(6, 2), (30, 6), (60, 5), (72, 4), (180, 3)])
def test_representatives_give_back_their_interned_vertex(m, n):
    graph = build_graph(m, n)
    assert graph.vertices
    for v in graph.vertices:
        assert primitive_set(graph.representatives[v]) is v


def test_singleton_graph_at_a_modulus_too_large_to_factorize():
    # a singleton's mask is 0, so no vanishing set is computed and m, a
    # Mersenne prime, is never factorized
    g = build_graph(2**89 - 1, 1)
    assert g.edges == frozenset({(pset(1), pset(1))})
    assert g.representatives[pset(1)].elements == (0,)
