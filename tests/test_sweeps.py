from dataclasses import replace
from itertools import combinations

import pytest

from fourier_hadamard import graphs, sweeps
from fourier_hadamard.cli import main
from fourier_hadamard.graphs import build_graph, classify_submatrix_size
from fourier_hadamard.hadamard import Decision
from fourier_hadamard.numtheory import divisors
from fourier_hadamard.primsets import PrimitiveSet

PLANTED = PrimitiveSet((1, 9999))


def counting(monkeypatch, module, plant=()):
    """Wrap ``module.build_graph`` so that it records every (m, n) it builds
    and adds PLANTED to the vertex sets of the graphs listed in ``plant``."""
    calls = []

    def wrapped(m, n):
        calls.append((m, n))
        graph = build_graph(m, n)
        if (m, n) in plant:
            graph = replace(graph, vertices=graph.vertices | {PLANTED})
        return graph

    monkeypatch.setattr(module, "build_graph", wrapped)
    return calls


def test_check_disjoint_builds_each_graph_once(monkeypatch):
    calls = counting(monkeypatch, sweeps)
    assert sweeps.check_disjoint(range(2, 13), (1, 2, 3, 4)) is None
    assert len(calls) == len(set(calls))
    assert set(calls) == {(m, n) for m in range(2, 13) for n in range(1, min(4, m) + 1)}


def test_check_scaling_skips_unit_scale(monkeypatch):
    calls = counting(monkeypatch, sweeps)
    assert sweeps.check_scaling(6, 3, 3) is None
    expected = []
    for m in range(1, 7):
        sizes = range(1, min(3, m) + 1)
        expected += [(m, n) for n in sizes]
        expected += [(v * m, n) for v in (2, 3) for n in sizes]
    assert calls == expected


def test_check_disjoint_reports_shared_vertex(monkeypatch):
    counting(monkeypatch, sweeps, plant={(12, 2), (12, 3)})
    bad = sweeps.check_disjoint(range(2, 13), (1, 2, 3, 4))
    assert bad == {"suite": "disjoint", "m": 12, "n": 2, "n2": 3}


def test_check_scaling_reports_missing_vertex(monkeypatch):
    counting(monkeypatch, sweeps, plant={(9, 2)})
    bad = sweeps.check_scaling(9, 3, 2)
    assert bad == {"suite": "scaling", "m": 9, "v": 2, "n": 2}


def test_check_disjoint_rejects_repeated_size(monkeypatch, capsys):
    calls = counting(monkeypatch, sweeps)
    with pytest.raises(ValueError, match="sizes must differ"):
        sweeps.check_disjoint([12], [2, 2])
    assert calls == []
    # sizes above m are dropped before the check
    assert sweeps.check_disjoint([3], [2, 5, 5]) is None

    monkeypatch.undo()
    assert main(["verify", "disjoint", "-m", "12", "--n", "2,2"]) == 2
    assert "error: sizes must differ" in capsys.readouterr().err


def test_classify_builds_only_admissible_sizes(monkeypatch):
    calls = counting(monkeypatch, graphs)
    assert classify_submatrix_size(divisors(24), [24]) == 24
    assert calls == [(24, 24)]


def test_classify_matches_vertex_lookup():
    for m in range(1, 13):
        found = {}
        for n in range(1, m + 1):
            for v in build_graph(m, n).vertices:
                assert v not in found
                found[v] = n
        rest = divisors(m)[1:]
        for size in range(len(rest) + 1):
            for tail in combinations(rest, size):
                x = (1,) + tail
                assert classify_submatrix_size(x, [m]) == found.get(PrimitiveSet(x), 0)


def flip_one_verdict(monkeypatch, name, m, j, k):
    """Make ``sweeps.<name>`` return the opposite decision for one pair."""
    original = getattr(sweeps, name)

    def planted(rows, cols):
        verdict = original(rows, cols)
        if (rows.modulus, rows.elements, cols.elements) == (m, j, k):
            flipped = (
                Decision.NOT_HADAMARD
                if verdict.decision is Decision.HADAMARD
                else Decision.HADAMARD
            )
            verdict = replace(verdict, decision=flipped)
        return verdict

    monkeypatch.setattr(sweeps, name, planted)


def test_oracle_3x3_reports_planted_fault(monkeypatch, capsys):
    # rows {0,1,2} and columns {0,3,6} of the 9-point matrix are Hadamard
    flip_one_verdict(monkeypatch, "decide_3x3", 9, (0, 1, 2), (0, 3, 6))
    expected = {
        "suite": "oracle3",
        "m": 9,
        "j": (0, 1, 2),
        "k": (0, 3, 6),
        "fast": "not-hadamard",
        "exact": "hadamard",
    }
    assert sweeps.check_oracle_3x3(12) == expected
    assert sweeps.check_oracle_3x3(8) is None

    assert main(["verify", "oracle3", "--m-max", "9"]) == 3
    err = capsys.readouterr().err
    assert "suite oracle3: FAIL" in err
    assert f"counterexample: {expected}" in err


def test_oracle_2x2_reports_planted_fault(monkeypatch):
    # rows {0,1} and columns {0,1} of the 4-point matrix are not Hadamard
    flip_one_verdict(monkeypatch, "decide_2x2_general", 4, (0, 1), (0, 1))
    assert sweeps.check_oracle_2x2(10) == {
        "suite": "oracle2",
        "m": 4,
        "j": (0, 1),
        "k": (0, 1),
        "fast": "hadamard",
        "exact": "not-hadamard",
    }
