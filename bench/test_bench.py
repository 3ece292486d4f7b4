"""Tests of the benchmark itself: tracer transparency and counts, the case
generator, the Gram check and the output gate.

    PYTHONPATH=src python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

import cases
import run
import tracer


def fhad(argv, tmp_path, traced=False):
    """Run one CLI command; returns exit code, stdout, exports and trace."""
    out = tmp_path / ("traced" if traced else "plain")
    out.mkdir()
    args = [a.replace(cases.OUT, str(out)) for a in argv]
    trace_file = out / "trace.json"
    if traced:
        cmd = [sys.executable, str(run.TRACER), str(trace_file), "--", *args]
    else:
        cmd = [sys.executable, "-m", "fourier_hadamard.cli", *args]
    proc = subprocess.run(cmd, cwd=run.ROOT, env=run.child_env(),
                          capture_output=True, timeout=300)
    exports = {p.name: p.read_bytes() for p in out.glob("g.*")}
    trace = json.loads(trace_file.read_text()) if traced else None
    return proc.returncode, proc.stdout, exports, trace


def graph_argv(m, n):
    return ("graph", "-m", str(m), "-n", str(n),
            "--json", f"{cases.OUT}/g.json", "--dot", f"{cases.OUT}/g.dot")


@pytest.mark.parametrize("argv", [
    graph_argv(12, 3),
    graph_argv(16, 4),
    ("test", "-m", "10", "-J", "0,1,7,8,9", "-K", "0,2,4,6,8"),
    ("test", "-m", "180", "-J", "0,10", "-K", "0,30"),
], ids=["G(12,3)", "G(16,4)", "test-hadamard", "test-negative"])
def test_tracer_is_transparent(argv, tmp_path):
    plain = fhad(argv, tmp_path)
    traced = fhad(argv, tmp_path, traced=True)
    assert plain[:3] == traced[:3]
    assert traced[3]["stats"]["cli.main"]["calls"] == 1


def test_traced_g60_5_counts(tmp_path):
    code, _, _, trace = fhad(graph_argv(60, 5), tmp_path, traced=True)
    assert code == 0
    layers = run.layer_metrics([trace])
    assert layers["graphs.subsets"] == 455_126
    assert layers["graphs.pairs"] == 140_715
    assert layers["graphs.buckets"] == 530
    assert layers["graphs.edges"] == 35
    assert layers["graphs.build_graph.calls"] == 1


def test_self_time_excludes_children():
    t = tracer.Tracer()

    def leaf():
        pass

    def outer():
        for _ in range(3):
            wrapped_leaf()

    wrapped_leaf = t.wrap("leaf", "test", leaf)
    t.wrap("outer", "test", outer)()
    stats = t.report()["stats"]
    assert stats["leaf"]["calls"] == 3
    outer_stats = stats["outer"]
    assert outer_stats["self_s"] == pytest.approx(
        outer_stats["total_s"] - stats["leaf"]["total_s"], abs=1e-9)


def test_covered_length_merges_overlaps():
    intervals = [(0.0, 2.0), (1.0, 3.0), (5.0, 6.0), (5.5, 5.7)]
    assert tracer.covered_length(intervals, 0.0, 10.0) == pytest.approx(4.0)
    assert tracer.covered_length(intervals, 1.5, 5.5) == pytest.approx(2.0)


def test_case_generator_is_deterministic():
    expected = cases.load_expected()
    for workload in cases.WORKLOADS:
        a = cases.workload_cases(workload, 7, expected)
        b = cases.workload_cases(workload, 7, expected)
        assert [(c.label, c.argv, c.expect) for c in a] == [(c.label, c.argv, c.expect) for c in b]
    draws = {tuple(c.argv for c in cases.workload_cases("test_large_m", s, expected))
             for s in range(5)}
    assert len(draws) == 5


def test_test_cases_are_half_hadamard():
    drawn = cases.workload_cases("test_large_m", 3, {})
    assert [c.expect["exit"] for c in drawn] == [0, 1] * 4


def test_gram_check():
    assert cases.gram_check(10, (0, 1, 7, 8, 9), (0, 2, 4, 6, 8)) is None
    assert cases.gram_check(180, (0, 10), (0, 30)) == 18
    # j*k overflows int64 here; the check reduces it in Python integers
    m = 3 * 2**40
    assert cases.gram_check(m, (0, 2**40, 2**41), (0, 2**41 - 1, 2**41)) is None
    assert cases.gram_check(m, (0, 2**40, 2**41), (0, 2**41 - 1, 2**41 + 1)) == 3


def test_planted_wrong_expectation_fails(monkeypatch, capsys):
    expected = cases.load_expected()
    expected["graph G(30,6)"] = dict(expected["graph G(30,6)"], edges=14)
    monkeypatch.setattr(run, "load_expected", lambda: expected)
    code = run.main(["--workload", "graph_build", "--seed", "1", "--seconds", "1"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False
    # warm-up, probes, one pass and its probe: only the G(30,6) case fails
    assert result["failed"] == 1
    assert result["attempted"] == 1 + run.SETUP_PROBES_FIRST + len(cases.GRAPH_CASES) + 1
