import json

import pytest

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
from fourier_hadamard.hadamard import Decision, SubmatrixVerdict
from fourier_hadamard.primsets import PrimitiveSet
from fourier_hadamard.sweeps import check_disjoint, check_scaling


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
    # check_scaling sweeps every m' <= m and v' <= v, so these cover
    # (m, v, n) = (6, 2, 2), (9, 1, 2) and (4, 3, 2)
    assert check_scaling(6, 2, 2) is None
    assert check_scaling(9, 1, 2) is None
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
    # re-check, naming the first wrong edge in sorted order
    def always(spec):
        return SubmatrixVerdict(Decision.HADAMARD, "exact")

    monkeypatch.setattr(graphs, "is_hadamard", always)
    with pytest.raises(
        VerificationError,
        match=r"^edge \{1,2\} -- \{1,3\} of G\(6,2\) failed exact re-verification$",
    ):
        build_graph(6, 2)
