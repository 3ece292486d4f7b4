import json
import os
import subprocess
import sys
import textwrap
import time
from math import prod

import pytest

import fourier_hadamard
import reference_builder
from fourier_hadamard import numtheory
from fourier_hadamard.cli import main
from fourier_hadamard.graphs import export_json
from fourier_hadamard.numtheory import modulus_context


def run(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_primset_human(capsys):
    code, out, _ = run(["primset", "-m", "6000", "0,5,375"], capsys)
    assert code == 0
    assert "P(X) = {1,16,600,1200}" in out
    assert "size divisor C = 2" in out
    assert "ruled out" in out


def test_primset_json(capsys):
    code, out, _ = run(["primset", "-m", "12", "0,1,6,9", "--json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["primitive_set"] == [1, 2, 3, 4, 12]
    assert doc["size_divisor"] == 12
    assert doc["prime_power_screen"] == "ruled-out"


def test_primset_of_a_singleton_never_factorizes(capsys, monkeypatch):
    # P = {1} is inconclusive for the prime-power screen at every m, so the
    # Mersenne prime 2^89 - 1 is never factorized
    def refuse(m):
        raise AssertionError(f"factorize({m}) called")

    monkeypatch.setattr(numtheory, "factorize", refuse)
    modulus_context.cache_clear()
    m = 2**89 - 1
    code, out, _ = run(["primset", "-m", str(m), "0"], capsys)
    assert code == 0
    assert "P(X) = {1}" in out and "prime power screen: inconclusive" in out


def test_primset_never_lists_the_divisors(capsys, monkeypatch):
    # the product of the first 30 primes has 2^30 divisors; both screens
    # read C(P), and the prime-power screen counts divisors from exponents
    def refuse(ctx):
        raise AssertionError(f"divisors of {ctx.m} listed")

    monkeypatch.setattr(numtheory.ModulusContext, "divisors", property(refuse))
    modulus_context.cache_clear()
    primes = [p for p in range(2, 114) if all(p % q for q in range(2, p))]
    m = prod(primes)
    elements = ",".join(map(str, [0] + [m // p for p in primes]))
    code, out, _ = run(["primset", "-m", str(m), elements, "--json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert len(doc["primitive_set"]) == 466 and doc["size_divisor"] == m
    assert doc["size_screen"] == doc["prime_power_screen"] == "ruled-out"


def test_primset_factorizes_the_modulus_once(capsys, factorize_calls):
    # the prime-power screen and both size-divisor reads share m's context
    m = 999_999_999_989
    code, out, _ = run(["primset", "-m", str(m), "0,1,2,3"], capsys)
    assert code == 0
    assert f"P(X) = {{1,{m}}}" in out and f"size divisor C = {m}" in out
    assert factorize_calls == [m]


def test_primset_trivial(capsys):
    code, out, _ = run(["primset", "-m", "5", "0"], capsys)
    assert code == 0
    assert "D(X) = {0}" in out
    assert "P(X) = {1}" in out
    assert "size divisor C = 1" in out


def test_primset_usage_errors(capsys):
    code, _, err = run(["primset", "-m", "10", "0,10"], capsys)
    assert code == 2 and "error" in err
    code, _, err = run(["primset", "-m", "10", "0,3,3"], capsys)
    assert code == 2 and "duplicate" in err


def test_test_command_decides(capsys):
    code, out, _ = run(["test", "-m", "10", "-J", "0,1,7,8,9", "-K", "0,2,4,6,8"], capsys)
    assert code == 0
    assert "decision: hadamard" in out

    code, out, _ = run(["test", "-m", "180", "-J", "0,10", "-K", "0,30"], capsys)
    assert code == 1
    assert "decision: not-hadamard" in out
    assert "nu_3 sum 3 > 2" in out

    code, out, _ = run(["test", "-m", "4", "-J", "0,2", "-K", "0,1"], capsys)
    assert code == 0


def test_test_command_oracles(capsys):
    base = ["test", "-m", "21", "-J", "0,2,16", "-K", "0,7,14"]
    for oracle, rule in (("exact", "exact"), ("numeric", "numeric"), ("auto", "3by3")):
        code, out, _ = run(base + ["--oracle", oracle], capsys)
        assert code == 0
        assert f"rule: {rule}" in out
    code, out, _ = run(base + ["--oracle", "both"], capsys)
    assert code == 0


def test_test_command_json(capsys):
    code, out, _ = run(
        ["test", "-m", "6", "-J", "0,4", "-K", "0,1", "--format", "json"], capsys
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["decision"] == "not-hadamard"
    assert doc["rule"] == "gen2by2"
    assert doc["witness"] == {"kind": "excess", "prime": 3, "max_sum": 2, "limit": 1}


def test_test_command_usage(capsys):
    code, _, err = run(["test", "-m", "10", "-J", "0,1", "-K", "0,1,2"], capsys)
    assert code == 2
    assert err == (
        "error: row set has 2 elements but column set has 3; "
        "Hadamard submatrices are square\n"
    )
    # a tolerance that no deviation is below, or that every one is, is a
    # usage error and not an oracle disagreement (exit 3)
    base = ["test", "-m", "10", "-J", "0,1,7,8,9", "-K", "0,2,4,6,8", "--oracle", "both"]
    for tol in ("nan", "inf"):
        code, out, err = run(base + ["--tol", tol], capsys)
        assert code == 2 and out == ""
        assert err == f"error: tolerance must be positive and finite, got {tol}\n"
    # every oracle checks the tolerance, also those that never read it
    for oracle, tol, shown in (("auto", "nan", "nan"), ("exact", "-1", "-1.0")):
        code, out, err = run(base[:-1] + [oracle, "--tol", tol], capsys)
        assert code == 2 and out == ""
        assert err == f"error: tolerance must be positive and finite, got {shown}\n"


def test_graph_command(capsys, tmp_path):
    dot = tmp_path / "g.dot"
    js = tmp_path / "g.json"
    code, out, _ = run(
        ["graph", "-m", "32", "-n", "2", "--dot", str(dot), "--json", str(js)], capsys
    )
    assert code == 0
    assert "|V| = 5, |E| = 3" in out
    assert dot.read_text().startswith('graph "G(32,2)"')
    doc = json.loads(js.read_text())
    assert doc["format"] == "compatgraph/1"
    assert len(doc["vertices"]) == 5


def test_graph_command_empty_and_errors(capsys):
    code, out, _ = run(["graph", "-m", "7", "-n", "2"], capsys)
    assert code == 0
    assert "empty" in out
    code, _, err = run(["graph", "-m", "4", "-n", "9"], capsys)
    assert code == 2


def test_graph_export_write_failure_exits_2(capsys, tmp_path):
    target = tmp_path / "missing" / "g.json"
    code, _, err = run(["graph", "-m", "6", "-n", "2", "--json", str(target)], capsys)
    assert code == 2
    assert err.startswith("error:") and "Traceback" not in err


def test_test_command_out_of_memory_exits_2(capsys, monkeypatch):
    def exhaust(spec):
        raise MemoryError

    monkeypatch.setattr("fourier_hadamard.hadamard.is_hadamard_exact", exhaust)
    argv = ["test", "-m", "12", "-J", "0,4,8", "-K", "0,1,2", "--oracle", "exact"]
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == "" and err == "error: out of memory\n"


def test_test_command_huge_modulus_under_memory_cap():
    # m = 10^12 is decided from K's exponents; a 1 GiB address-space cap
    # shows that no object of size m or phi(s) is built
    resource = pytest.importorskip("resource")
    limit = 1 << 30

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    src = os.path.dirname(os.path.dirname(fourier_hadamard.__file__))
    m = 10**12
    q = m // 4

    def fhad(*argv):
        return subprocess.run(
            [sys.executable, "-m", "fourier_hadamard.cli", "test", "-m", str(m), *argv],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, preexec_fn=cap_address_space, timeout=120,
        )

    proc = fhad("-J", "0,1,2,3", "-K", "0,1,2,3")
    assert proc.returncode == 1 and proc.stderr == ""
    assert (
        "witness: cyclotomic polynomial of order 500000000000 does not divide K(z)"
        in proc.stdout
    )
    proc = fhad("-J", "0,1,2,3", "-K", f"0,{q},{2 * q},{3 * q}", "--oracle", "both")
    assert proc.returncode == 0 and proc.stderr == ""
    assert "decision: hadamard" in proc.stdout


def test_graph_dominant_reported(capsys):
    code, out, _ = run(["graph", "-m", "6", "-n", "2"], capsys)
    assert code == 0
    assert "dominant vertices: {1,2}" in out


def test_graph_output_deterministic(capsys):
    code1, out1, _ = run(["graph", "-m", "24", "-n", "3"], capsys)
    code2, out2, _ = run(["graph", "-m", "24", "-n", "3"], capsys)
    assert code1 == code2 == 0
    assert out1 == out2


def test_graph_verification_failure_exits_3(capsys, monkeypatch):
    # a Z(K) holding every order puts every bucket inside every other
    monkeypatch.setattr(
        "fourier_hadamard.graphs.zero_mask", lambda ctx, elements: (1 << len(ctx.orders)) - 1
    )
    code, out, err = run(["graph", "-m", "6", "-n", "2"], capsys)
    assert code == 3 and out == ""
    # {1,3} is screened out before the pair phase; {0,1} is not Hadamard with itself
    assert err.startswith("verification failure: edge {1,6} -- {1,6} of G(6,2)")


@pytest.mark.parametrize(
    "argv",
    [
        ["graph", "-m", "6", "-n", "2"],
        ["verify", "counts2q", "--q-max", "3"],
        ["classify", "1,3", "--m", "12"],
    ],
)
def test_threads_flag_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--threads", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --threads 2" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["oracle2", "--m-max", "-3"],
        ["scaling", "--n-max", "-2"],
        ["scaling", "--v-max", "-1"],
        ["counts2q", "--q-max", "-1"],
        ["compprop", "--samples", "-5"],
    ],
)
def test_verify_negative_bound_exits_2(capsys, argv):
    # a negative bound would sweep nothing and still print "suite ...: pass"
    with pytest.raises(SystemExit) as exc:
        main(["verify"] + argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and f"argument {argv[1]}: must be nonnegative" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["counts2q", "--q-max", "0"],
        ["scaling", "--v-max", "1"],
        ["scaling", "--v-max", "0"],
        ["scaling", "--n-max", "0"],
        ["oracle2", "--m-max", "1"],
        ["oracle3", "--m-max", "2"],
        ["disjoint", "--n-max", "1"],
        ["disjoint", "-m", "12", "--n", "2"],
        ["disjoint", "-m", "0"],
        ["disjoint", "-m", "-3"],
        ["compprop", "--m-max", "1", "--samples", "0"],
        # --m-max 0 is a bound, not a request for the suite's default
        ["oracle2", "--m-max", "0"],
        ["oracle3", "--m-max", "0"],
        ["scaling", "--m-max", "0"],
        ["disjoint", "--m-max", "0"],
        ["compprop", "--m-max", "0", "--samples", "0"],
    ],
)
def test_verify_bounds_selecting_no_case_exit_2(capsys, argv):
    # a sweep that checks nothing must not print "suite ...: pass"
    code, out, err = run(["verify"] + argv, capsys)
    assert code == 2
    assert "pass" not in out
    assert err.startswith("error: ") and "checks nothing" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["--n-max", "0"],
        ["--n-max", "1"],
        ["-m", "12", "--n", "2,2"],
        ["--m-max", "1"],
        ["--n", "2,x"],
        ["--n", ""],
    ],
)
def test_refused_disjoint_sweep_prints_nothing(capsys, argv):
    # the header comes only after the sweep has accepted its bounds
    code, out, err = run(["verify", "disjoint"] + argv, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_verify_compprop_samples_only(capsys):
    # with --m-max 0 only the samples run, drawn from moduli 2..5000; a draw
    # from 1..5000 would reach m = 1, which has no 2-subset, at sample 1842
    code, out, err = run(["verify", "compprop", "--m-max", "0", "--samples", "2000"], capsys)
    assert (code, out, err) == (0, "suite compprop: pass\n", "")


def test_verify_compprop_with_no_modulus_to_sample_exits_2(capsys):
    code, out, err = run(["verify", "compprop", "--m-max", "5000", "--samples", "1"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "5000" in err


def test_verify_compprop_past_the_subset_bound_exits_2(capsys):
    # C(5000, 2) + C(5000, 3) + C(5000, 4), about 2.6 * 10^13 subsets
    start = time.perf_counter()
    code, out, err = run(["verify", "compprop", "--m-max", "5000", "--samples", "0"], capsys)
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "100000000 subsets" in err


def test_verify_suites(capsys):
    code, out, _ = run(["verify", "counts2q", "--q-max", "4"], capsys)
    assert code == 0
    assert "suite counts2q: pass" in out
    assert "G(2^4,2)" in out

    code, out, _ = run(["verify", "disjoint", "-m", "12", "--n", "2,3"], capsys)
    assert code == 0

    code, out, _ = run(["verify", "oracle2", "--m-max", "12"], capsys)
    assert code == 0

    code, out, _ = run(["verify", "oracle3", "--m-max", "9"], capsys)
    assert code == 0

    code, out, _ = run(
        ["verify", "compprop", "--m-max", "8", "--samples", "50"], capsys
    )
    assert code == 0

    code, out, _ = run(["verify", "scaling", "--m-max", "4"], capsys)
    assert code == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["graph", "-m", "1000000", "-n", "500000"],
        ["classify", "1,2", "--m", "1000000000000"],
    ],
)
def test_huge_enumeration_refused(capsys, argv):
    start = time.perf_counter()
    code, out, err = run(argv, capsys)
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err.startswith("error: G(") and "subsets to enumerate" in err


def test_huge_difference_count_refused(capsys):
    # one subset, but 100,005,153 differences to re-verify
    start = time.perf_counter()
    code, out, err = run(["graph", "-m", "14143", "-n", "14143"], capsys)
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err == "error: G(14143,14143) has more than 100000000 differences per witness\n"


def test_graph_with_2n_above_m_is_read_off(capsys, tmp_path):
    # C(59,39) subsets contain 0, but with 2n > m there is one bucket and
    # nothing is enumerated, so the subset count does not refuse the graph
    export = tmp_path / "g.json"
    start = time.perf_counter()
    code, out, err = run(["graph", "-m", "60", "-n", "40", "--json", str(export)], capsys)
    assert time.perf_counter() - start < 1
    assert code == 0 and err == ""
    assert out == "G(60,40) is empty: no 40x40 Hadamard submatrix of F_60 exists\n"
    assert export.read_text(encoding="utf-8") == (
        '{"format":"compatgraph/1","m":60,"n":40,"vertices":[],"edges":[],'
        '"representatives":{}}\n'
    )


@pytest.mark.parametrize("m, n", [(16, 9), (15, 14), (12, 12)])
def test_graph_with_2n_above_m_matches_reference(capsys, tmp_path, m, n):
    # small enough for the reference builder to enumerate every subset
    export = tmp_path / "g.json"
    code, _, err = run(["graph", "-m", str(m), "-n", str(n), "--json", str(export)], capsys)
    assert code == 0 and err == ""
    expected = export_json(reference_builder.build_graph(m, n))
    assert export.read_text(encoding="utf-8") == expected


def test_verify_unknown_suite_exits_2(capsys):
    with pytest.raises(SystemExit) as err:
        main(["verify", "bogus"])
    assert err.value.code == 2


def test_classify_command(capsys):
    code, out, _ = run(["classify", "1,3", "--m", "12,21"], capsys)
    assert code == 0
    assert "3x3" in out
    code, out, _ = run(["classify", "1,3,21", "--m", "21"], capsys)
    assert code == 0
    assert "3x3" in out
    code, out, _ = run(["classify", "1,4", "--m", "6"], capsys)
    assert code == 0
    assert "not found within candidates" in out
    code, out, _ = run(["classify", "1,3", "--m", "12", "--format", "json"], capsys)
    assert code == 0
    assert json.loads(out)["size"] == 3


def test_classify_usage(capsys):
    code, _, err = run(["classify", "1,3", "--m", ""], capsys)
    assert code == 2
    code, out, err = run(["classify", "1,3", "--m", "12,x"], capsys)
    assert code == 2 and out == ""
    assert err == "error: expected comma-separated integers, got '12,x'\n"


@pytest.mark.parametrize("moduli", ["2,0", "0,2"])
def test_classify_rejects_a_bad_candidate_anywhere(capsys, moduli):
    # {1,2} is found at m = 2, before the search would reach the 0
    code, out, err = run(["classify", "1,2", "--m", moduli], capsys)
    assert code == 2 and out == ""
    assert err == "error: candidate modulus must be positive, got 0\n"


def test_package_loads_only_the_standard_library():
    # against a snapshot, because site may already have loaded .pth modules
    probe = textwrap.dedent("""
        import sys
        before = set(sys.modules)
        from fourier_hadamard import cli
        from fourier_hadamard.hadamard import (
            SubmatrixSpec, is_hadamard, is_hadamard_exact, is_hadamard_numeric,
        )
        spec = SubmatrixSpec.of(10, (0, 1, 7, 8, 9), (0, 2, 4, 6, 8))
        for oracle in (is_hadamard, is_hadamard_exact, is_hadamard_numeric):
            assert oracle(spec).decision.value == "hadamard"
        added = {name.partition(".")[0] for name in set(sys.modules) - before}
        print(sorted(added - set(sys.stdlib_module_names) - {"fourier_hadamard"}))
    """)
    src = os.path.dirname(os.path.dirname(fourier_hadamard.__file__))
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True,
    ).stdout
    assert out.strip() == "[]"


# runs ``main`` on sys.argv[1:] in a fresh interpreter, then prints which of
# the modules named in the environment it loaded; -S keeps site's .pth
# hooks from loading any of them first
FOOTPRINT_PROBE = """
import os, sys
before = set(sys.modules)
from fourier_hadamard.cli import main
main(sys.argv[1:])
watched = os.environ["WATCHED"].split()
print(sorted(set(watched) & set(sys.modules) - before))
"""

LAYERS = ["fourier_hadamard.graphs", "fourier_hadamard.sweeps"]
DATACLASSES = ["dataclasses", "inspect"]
HADAMARD = ["fourier_hadamard.hadamard", "cmath"]


def run_probe(probe, argv, env):
    src = os.path.dirname(os.path.dirname(fourier_hadamard.__file__))
    return subprocess.run(
        [sys.executable, "-S", "-c", probe, *argv],
        env={**os.environ, "PYTHONPATH": src, **env},
        capture_output=True, text=True, check=True,
    ).stdout


@pytest.mark.parametrize(
    "argv, unloaded",
    [
        (["test", "-m", "5040", "-J", "0,1,2,3,4,5",
          "-K", "0,840,1680,2520,3360,4200"], LAYERS + DATACLASSES),
        (["test", "-m", "12", "-J", "0,4,8", "-K", "0,1,2", "--format", "json"],
         LAYERS + DATACLASSES),
        (["primset", "-m", "6000", "0,5,375"], LAYERS + DATACLASSES + ["json"]),
        (["primset", "-m", "6000", "0,5,375", "--json"], LAYERS + DATACLASSES),
        (["graph", "-m", "12", "-n", "3"], DATACLASSES + ["json"]),
        (["classify", "1,3", "--m", "12"], DATACLASSES + ["json"]),
        (["verify", "counts2q"], DATACLASSES + ["json"]),
        # each verify suite loads only the layers it runs
        (["verify", "compprop", "--samples", "20"],
         DATACLASSES + HADAMARD + ["fourier_hadamard.graphs", "json"]),
        (["verify", "oracle2", "--m-max", "8"], DATACLASSES + ["fourier_hadamard.graphs", "json"]),
        (["verify", "oracle3", "--m-max", "8"], DATACLASSES + ["fourier_hadamard.graphs", "json"]),
        (["verify", "disjoint"], DATACLASSES + ["json"]),
        (["verify", "scaling"], DATACLASSES + ["json"]),
    ],
)
def test_subcommands_load_only_their_layers(argv, unloaded):
    out = run_probe(FOOTPRINT_PROBE, argv, {"WATCHED": " ".join(unloaded)})
    assert out.splitlines()[-1] == "[]"


def test_package_resolves_its_names_on_first_use():
    probe = textwrap.dedent("""
        import sys
        from importlib import import_module
        import fourier_hadamard
        print(sorted(m for m in sys.modules if m.startswith("fourier_hadamard.")))
        for name in fourier_hadamard.__all__:
            homes = [
                import_module(f"fourier_hadamard.{layer}")
                for layer in ("numtheory", "primsets", "hadamard", "graphs")
            ]
            (home,) = [h for h in homes if name in h.__all__]
            assert getattr(fourier_hadamard, name) is getattr(home, name), name
        try:
            fourier_hadamard.no_such_name
        except AttributeError as exc:
            print(exc)
    """)
    out = run_probe(probe, [], {})
    assert out.splitlines() == [
        "[]",
        "module 'fourier_hadamard' has no attribute 'no_such_name'",
    ]
