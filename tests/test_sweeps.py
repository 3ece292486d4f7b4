from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

import sweep_reference as reference
from fourier_hadamard import graphs, sweeps
from fourier_hadamard.cli import main
from fourier_hadamard.graphs import CompatGraph, build_graph, classify_submatrix_size
from fourier_hadamard.hadamard import (
    Decision,
    SubmatrixVerdict,
    decide_2x2_general,
    decide_3x3,
)
from fourier_hadamard.numtheory import divisors
from fourier_hadamard.primsets import PrimitiveSet, ResidueSet, difference_set, primitive_set

PLANTED = PrimitiveSet((1, 9999))


def counting(monkeypatch, module, plant=()):
    """Wrap ``module.build_graph`` so that it records every (m, n) it builds
    and adds PLANTED to the vertex sets of the graphs listed in ``plant``."""
    calls = []

    def wrapped(m, n):
        calls.append((m, n))
        graph = build_graph(m, n)
        if (m, n) in plant:
            graph = CompatGraph(
                m, n, graph.vertices | {PLANTED}, graph.edges, graph.representatives
            )
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
    # each graph once, in the order the comparisons first need it
    expected = []
    for m in range(1, 7):
        for v in (2, 3):
            for n in range(1, min(3, m) + 1):
                expected += [g for g in ((m, n), (v * m, n)) if g not in expected]
    assert calls == expected


def test_check_disjoint_reports_shared_vertex(monkeypatch):
    counting(monkeypatch, sweeps, plant={(12, 2), (12, 3)})
    bad = sweeps.check_disjoint(range(2, 13), (1, 2, 3, 4))
    assert bad == {"suite": "disjoint", "m": 12, "n": 2, "n2": 3}


def test_check_scaling_reports_missing_vertex(monkeypatch):
    counting(monkeypatch, sweeps, plant={(9, 2)})
    bad = sweeps.check_scaling(9, 3, 2)
    assert bad == {"suite": "scaling", "m": 9, "v": 2, "n": 2}


def test_counts_2q_reports_wrong_count(monkeypatch, capsys):
    # a planted vertex in G(2^3,2) makes its count 4 where 3 is expected
    counting(monkeypatch, sweeps, plant={(8, 2)})
    rows, bad = sweeps.check_counts_power_of_two(5)
    assert rows == [(1, 1, 1), (2, 2, 1), (3, 4, 2)]
    assert bad == {"suite": "counts2q", "q": 3, "vertices": 4, "edges": 2, "expected": (3, 2)}

    assert main(["verify", "counts2q", "--q-max", "5"]) == 3
    out, err = capsys.readouterr()
    assert "suite counts2q: FAIL" in err
    assert f"counterexample: {bad}" in err
    assert "G(2^4,2)" not in out


def test_check_disjoint_rejects_repeated_size(monkeypatch, capsys):
    calls = counting(monkeypatch, sweeps)
    with pytest.raises(ValueError, match="sizes must differ"):
        sweeps.check_disjoint([12], [2, 2])
    assert calls == []
    # sizes above m are dropped before the check
    assert sweeps.check_disjoint([4], [2, 3, 5, 5]) is None

    monkeypatch.undo()
    assert main(["verify", "disjoint", "-m", "12", "--n", "2,2"]) == 2
    assert "error: sizes must differ" in capsys.readouterr().err
    assert main(["verify", "disjoint", "-m", "12", "--n", "2,x"]) == 2
    assert "error: expected comma-separated integers, got '2,x'" in capsys.readouterr().err


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
    """Make ``sweeps.<name>`` return the opposite decision at modulus m for
    the primitive sets of rows j and columns k."""
    original = getattr(sweeps, name)
    key = (m, primitive_set(ResidueSet(m, j)), primitive_set(ResidueSet(m, k)))

    def planted(modulus, pj, pk):
        verdict = original(modulus, pj, pk)
        if (modulus, pj, pk) == key:
            flipped = (
                Decision.NOT_HADAMARD
                if verdict.decision is Decision.HADAMARD
                else Decision.HADAMARD
            )
            verdict = SubmatrixVerdict(flipped, verdict.rule, verdict.witness)
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


FAST_TEST = {2: "decide_2x2_general", 3: "decide_3x3"}


def test_oracle_sweeps_match_pair_by_pair_reference():
    assert sweeps.check_oracle_2x2(48) is None
    assert reference.oracle_equivalence(48, 2, decide_2x2_general) is None
    assert sweeps.check_oracle_3x3(22) is None
    assert reference.oracle_equivalence(22, 3, decide_3x3) is None


@st.composite
def planted_oracle_faults(draw):
    """A size n, a modulus m and two pairs of 0-containing n-subsets J <= K
    in enumeration order, so that the pair-by-pair scan meets both
    (P(J), P(K)) keys."""
    n = draw(st.sampled_from((2, 3)))
    m = draw(st.integers(n, 16))
    tails = st.lists(st.integers(1, m - 1), min_size=n - 1, max_size=n - 1, unique=True)

    def pair():
        return tuple(sorted((0,) + tuple(sorted(draw(tails))) for _ in range(2)))

    return n, m, {pair(), pair()}


@settings(derandomize=True, max_examples=100, deadline=None)
@given(planted_oracle_faults())
def test_oracle_sweeps_report_the_reference_counterexample(fault):
    n, m, pairs = fault
    # one pair per (P(J), P(K)) key: a key flipped twice would be unflipped
    keys = {
        (primitive_set(ResidueSet(m, j)), primitive_set(ResidueSet(m, k))): (j, k)
        for j, k in pairs
    }
    with pytest.MonkeyPatch.context() as mp:
        for j, k in keys.values():
            flip_one_verdict(mp, FAST_TEST[n], m, j, k)
        planted = getattr(sweeps, FAST_TEST[n])
        check = sweeps.check_oracle_2x2 if n == 2 else sweeps.check_oracle_3x3
        found = check(m)
        assert found == reference.oracle_equivalence(m, n, planted)
    assert found["m"] == m


def test_compprop_sweep_matches_all_subsets_reference():
    assert sweeps.check_compprop(20, 200) is None
    assert reference.compprop(20, 200) is None


@st.composite
def planted_compprop_faults(draw):
    """A modulus m, a subset x of [0, m) with 2 to 4 elements and a sweep
    bound m_max >= m."""
    m = draw(st.integers(2, 12))
    size = draw(st.integers(2, min(4, m)))
    x = draw(st.lists(st.integers(0, m - 1), min_size=size, max_size=size, unique=True))
    return m, tuple(sorted(x)), draw(st.integers(m, 12))


@settings(derandomize=True, max_examples=50, deadline=None)
@given(planted_compprop_faults())
def test_compprop_sweep_reports_the_reference_violation(fault):
    m, x, m_max = fault
    key = difference_set(ResidueSet(m, x))
    original = sweeps.compprop_violation

    def planted(y):
        if y.modulus == m and difference_set(y) == key:
            return {"suite": "compprop", "m": m, "x": y.elements}
        return original(y)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sweeps, "compprop_violation", planted)
        found = sweeps.check_compprop(m_max, 20)
        assert found == reference.compprop(m_max, 20)
    assert found["m"] == m and found["x"][0] == 0
    assert difference_set(ResidueSet(m, found["x"])) == key
