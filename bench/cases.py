"""Workload cases for the fhad benchmark, and their expected outputs.

Every case is one ``fhad`` command line.  ``graph`` and ``verify`` cases have
fixed inputs; their exit codes and output hashes were recorded at the seed
commit (``expected.json``, written by ``record.py``), and the seed only sets
the order in which they run.  ``test`` cases are drawn from the seed, and
their expected verdicts come from an independent Gram check in this file,
not from the package under test.
"""

from __future__ import annotations

import cmath
import hashlib
import json
import random
from dataclasses import dataclass, field
from itertools import combinations
from math import gcd, pi
from pathlib import Path

EXPECTED_FILE = Path(__file__).with_name("expected.json")

# Placeholder the runner replaces with a fresh per-run export directory.
OUT = "{out}"


@dataclass(frozen=True)
class Case:
    """One command line and what it must produce.

    ``expect`` holds ``exit`` and ``stdout_sha256``; graph cases add the
    sha256 of both exports and the vertex and edge counts.
    """

    label: str
    argv: tuple[str, ...]
    expect: dict = field(compare=False)

    @property
    def exports(self) -> bool:
        return "json_sha256" in self.expect


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# Fixed command lines, keyed by the label that indexes expected.json.
SETUP = {"setup primset": ("primset", "-m", "12", "0,1")}

GRAPHS = ((180, 3), (30, 6), (40, 5), (72, 4))

GRAPH_CASES = {
    f"graph G({m},{n})": (
        "graph", "-m", str(m), "-n", str(n),
        "--json", f"{OUT}/g.json", "--dot", f"{OUT}/g.dot",
    )
    for m, n in GRAPHS
}

VERIFY_CASES = {
    "verify compprop": ("verify", "compprop", "--samples", "2000"),
    "verify disjoint": ("verify", "disjoint"),
    "verify scaling": ("verify", "scaling"),
    "verify oracle2": ("verify", "oracle2"),
    "verify oracle3": ("verify", "oracle3", "--m-max", "22"),
    "verify counts2q": ("verify", "counts2q"),
}

FIXED = {**SETUP, **GRAPH_CASES, **VERIFY_CASES}

TEST_MODULI = (2520, 5040)
TEST_SIZES = (4, 6)

# An off-diagonal Gram entry is taken as zero below ZERO and as nonzero
# above NONZERO; a case with an entry in between is redrawn, so every
# expected verdict is unambiguous in float64.
ZERO, NONZERO = 1e-9, 1e-4


def load_expected(path: Path = EXPECTED_FILE) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def fixed_case(label: str, expected: dict) -> Case:
    try:
        return Case(label, FIXED[label], expected[label])
    except KeyError:
        raise KeyError(f"no recorded expectation for {label!r} in {EXPECTED_FILE.name}")


def gram_check(m: int, rows, cols) -> int | None:
    """Decide whether rows x cols of F_m is Hadamard, independently of the
    package: returns None when every pair of rows is orthogonal, else the
    least order s = m / gcd(m, b - a) over rows a, b that are not.

    Entry (a, b) of H*H is the sum over columns k of e^(2 pi i (b-a) k / m);
    (b-a)*k is reduced mod m in Python integers before any float is made.
    """
    failing = []
    for a, b in combinations(sorted(rows), 2):
        d = b - a
        z = abs(sum(cmath.exp(2j * pi * ((d * k) % m) / m) for k in cols))
        if ZERO <= z <= NONZERO:
            raise ValueError(f"ambiguous Gram entry {z:.3e} for m={m}, rows {a},{b}")
        if z > NONZERO:
            failing.append(m // gcd(m, d))
    return min(failing) if failing else None


def render_test_stdout(m: int, rows, cols, witness: int | None) -> str:
    """The human-format stdout of ``fhad test`` for an n >= 4 selection,
    which the dispatcher decides with the exact oracle."""
    fmt = lambda xs: "{" + ",".join(map(str, sorted(xs))) + "}"
    lines = [f"H_(J,K) of F_{m} with J = {fmt(rows)}, K = {fmt(cols)}"]
    if witness is None:
        lines += ["decision: hadamard", "rule: exact"]
    else:
        lines += [
            "decision: not-hadamard",
            "rule: exact",
            f"witness: cyclotomic polynomial of order {witness} does not divide K(z)",
        ]
    return "\n".join(lines) + "\n"


def _test_case(label: str, m: int, rows, cols, witness) -> Case:
    stdout = render_test_stdout(m, rows, cols, witness)
    expect = {
        "exit": 0 if witness is None else 1,
        "stdout_sha256": sha256(stdout.encode()),
    }
    argv = ("test", "-m", str(m), "-J", ",".join(map(str, rows)),
            "-K", ",".join(map(str, cols)))
    return Case(label, argv, expect)


def draw_test_cases(rng: random.Random) -> list[Case]:
    """One Hadamard and one non-Hadamard case per (m, n).

    Rows are J = u*{0..n-1} + v with u a random unit; the Hadamard columns
    are K = {0, m/n, ...} + w, so every s in P(J) must be tested.  The other
    case keeps J and draws K at random, so the exact oracle stops at the
    first s.
    """
    cases = []
    for m in TEST_MODULI:
        for n in TEST_SIZES:
            u = rng.randrange(1, m)
            while gcd(u, m) != 1:
                u = rng.randrange(1, m)
            v, w = rng.randrange(m), rng.randrange(m // n)
            rows = [(u * a + v) % m for a in range(n)]
            cols = [b * (m // n) + w for b in range(n)]
            if gram_check(m, rows, cols) is not None:
                raise AssertionError(f"constructed case m={m} n={n} is not Hadamard")
            cases.append(_test_case(f"test m={m} n={n} hadamard", m, rows, cols, None))
            while True:
                cols = rng.sample(range(m), n)
                try:
                    witness = gram_check(m, rows, cols)
                except ValueError:
                    continue
                if witness is not None:
                    break
            cases.append(_test_case(f"test m={m} n={n} random", m, rows, cols, witness))
    return cases


WORKLOADS = ("graph_build", "test_large_m", "verify_sweeps")


def workload_cases(workload: str, seed: int, expected: dict) -> list[Case]:
    """The cases of one workload, for one seed."""
    if workload == "graph_build":
        return [fixed_case(label, expected) for label in GRAPH_CASES]
    if workload == "verify_sweeps":
        return [fixed_case(label, expected) for label in VERIFY_CASES]
    if workload == "test_large_m":
        return draw_test_cases(random.Random(f"test_large_m:{seed}"))
    raise ValueError(f"unknown workload {workload!r}")


def check_outputs(case: Case, code: int, stdout: bytes, exports: dict[str, bytes]) -> list[str]:
    """Compare one execution with its expectation; returns the mismatches."""
    want = case.expect
    errors = []
    if code != want["exit"]:
        errors.append(f"exit code {code}, expected {want['exit']}")
    if sha256(stdout) != want["stdout_sha256"]:
        errors.append("stdout differs from the recorded output")
    if case.exports:
        for kind in ("json", "dot"):
            data = exports.get(kind)
            if data is None:
                errors.append(f"no --{kind} export written")
            elif sha256(data) != want[f"{kind}_sha256"]:
                errors.append(f"--{kind} export differs from the recorded one")
        if exports.get("json") is not None:
            try:
                doc = json.loads(exports["json"])
                counts = (len(doc["vertices"]), len(doc["edges"]))
            except (ValueError, KeyError, TypeError):
                counts = None
            if counts != (want["vertices"], want["edges"]):
                errors.append(f"|V|,|E| = {counts}, expected "
                              f"{(want['vertices'], want['edges'])}")
    return errors
