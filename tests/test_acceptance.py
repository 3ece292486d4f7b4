"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (run pytest with -s to stream
them).  Stated runtime budgets are asserted alongside the mathematical
checks.
"""

import cmath
import random
import time
from itertools import combinations
from math import gcd

from fourier_hadamard.graphs import build_graph, dominant_vertices, has_edge
from fourier_hadamard.hadamard import (
    Decision,
    Screen,
    SubmatrixSpec,
    is_hadamard_exact,
    is_hadamard_numeric,
    screen_size_divisor,
)
from fourier_hadamard.primsets import (
    PrimitiveSet,
    ResidueSet,
    primitive_set,
    scale,
    shift,
    size_divisor,
)
from fourier_hadamard.sweeps import (
    check_compprop,
    check_counts_power_of_two,
    check_disjoint,
    check_oracle_2x2,
    check_oracle_3x3,
    check_scaling,
)


def _report(num, desc, ok, elapsed, limit=None, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"[criterion {num:2d}] {desc}: {status} ({elapsed:.1f}s)"
    if detail and not ok:
        line += f" -- {detail}"
    print(line)
    assert ok, line
    if limit is not None:
        assert elapsed < limit, f"criterion {num} exceeded {limit}s budget: {elapsed:.1f}s"


def test_criterion_01_power_of_two_counts():
    start = time.time()
    rows, bad = check_counts_power_of_two(8)
    _report(1, "G(2^q,2) counts for q=1..8", bad is None, time.time() - start, 10, str(bad))


def test_criterion_02_twice_prime_graphs():
    start = time.time()
    ok = True
    detail = ""
    for p in (3, 5, 7, 11, 13):
        g = build_graph(2 * p, 2)
        two = PrimitiveSet((1, 2))
        twop = PrimitiveSet((1, 2 * p))
        if g.vertices != frozenset({two, twop}) or g.edges != frozenset(
            {(two, two), (two, twop)}
        ):
            ok = False
            detail = f"G({2 * p},2) malformed"
            break
    _report(2, "G(2p,2) structure for p in {3,5,7,11,13}", ok, time.time() - start, 1, detail)


def test_criterion_03_g180_2_spot_checks():
    start = time.time()
    g = build_graph(180, 2)
    ok = has_edge(g, PrimitiveSet((1, 20)), PrimitiveSet((1, 18))) and not has_edge(
        g, PrimitiveSet((1, 18)), PrimitiveSet((1, 6))
    )
    _report(3, "G(180,2) spot checks", ok, time.time() - start, 5)


def test_criterion_04_g180_3_spot_checks():
    start = time.time()
    g = build_graph(180, 3)
    ok = has_edge(g, PrimitiveSet((1, 9, 45)), PrimitiveSet((1, 6, 12))) and not has_edge(
        g, PrimitiveSet((1, 15, 60)), PrimitiveSet((1, 30, 60))
    )
    _report(4, "G(180,3) spot checks", ok, time.time() - start, 60)


def test_criterion_05_example_battery():
    start = time.time()
    checks = [
        is_hadamard_exact(SubmatrixSpec.of(4, (0, 2), (0, 1))).decision is Decision.HADAMARD,
        is_hadamard_exact(
            SubmatrixSpec.of(10, (0, 1, 7, 8, 9), (0, 2, 4, 6, 8))
        ).decision is Decision.HADAMARD,
        is_hadamard_exact(SubmatrixSpec.of(21, (0, 2, 16), (0, 7, 14))).decision
        is Decision.HADAMARD,
        is_hadamard_exact(SubmatrixSpec.of(12, (0, 4, 8), (0, 1, 2))).decision
        is Decision.HADAMARD,
    ]
    checks.extend(
        is_hadamard_exact(SubmatrixSpec.of(6, (0, 4), k)).decision is Decision.NOT_HADAMARD
        for k in combinations(range(6), 2)
    )
    p6000 = primitive_set(ResidueSet(6000, (0, 5, 375)))
    checks.append(size_divisor(p6000) == 2)
    checks.append(screen_size_divisor(p6000, 3) is Screen.RULED_OUT)
    _report(5, "worked-example battery (exact oracle)", all(checks), time.time() - start, 5)


def test_criterion_06_oracle_equivalence():
    start = time.time()
    bad2 = check_oracle_2x2(48)
    bad3 = check_oracle_3x3(30)
    ok = bad2 is None and bad3 is None
    _report(
        6,
        "2x2 (m<=48) and 3x3 (m<=30) tests match the exact oracle",
        ok,
        time.time() - start,
        300,
        str(bad2 or bad3),
    )


def _transfer_counterexample(m_max, n_values=(2, 3)):
    # equal primitive sets must give equal verdicts against any column set
    for m in range(2, m_max + 1):
        for n in n_values:
            if n > m:
                continue
            buckets = {}
            for elems in combinations(range(m), n):
                p = primitive_set(ResidueSet(m, elems))
                buckets.setdefault(p, []).append(elems)
            # shifting a column set never changes the verdict (checked above),
            # so 0-containing column sets cover all of them
            for tail in combinations(range(1, m), n - 1):
                kres = ResidueSet(m, (0,) + tail)
                for p, members in buckets.items():
                    first = None
                    for j_elems in members:
                        d = is_hadamard_exact(
                            SubmatrixSpec(m, ResidueSet(m, j_elems), kres)
                        ).decision
                        if first is None:
                            first = d
                        elif d is not first:
                            return (m, n, p.elements, kres.elements)
    return None


def test_criterion_07_property_suites():
    start = time.time()
    failures = []
    rng = random.Random(708)

    bad = check_compprop(m_max=20, samples=10000)
    if bad:
        failures.append(("compprop", bad))

    for _ in range(1000):
        m = rng.randint(1, 300)
        size = rng.randint(1, min(6, m))
        x = ResidueSet(m, tuple(rng.sample(range(m), size)))
        v = rng.randint(-500, 500)
        w = rng.randint(1, 8)
        if primitive_set(shift(x, v)) != primitive_set(x):
            failures.append(("shift-invariance", (m, x.elements, v)))
            break
        if primitive_set(scale(x, w)) != primitive_set(x):
            failures.append(("scale-invariance", (m, x.elements, w)))
            break

    for _ in range(500):
        m = rng.randint(2, 40)
        n = rng.randint(1, min(5, m))
        j = ResidueSet(m, tuple(rng.sample(range(m), n)))
        k = ResidueSet(m, tuple(rng.sample(range(m), n)))
        a, b = rng.randint(-99, 99), rng.randint(-99, 99)
        before = is_hadamard_exact(SubmatrixSpec(m, j, k)).decision
        after = is_hadamard_exact(SubmatrixSpec(m, shift(j, a), shift(k, b))).decision
        if before is not after:
            failures.append(("verdict-shift-invariance", (m, j.elements, k.elements)))
            break

    bad = check_disjoint(range(2, 25), (1, 2, 3, 4))
    if bad:
        failures.append(("disjoint", bad))

    bad = check_scaling(12, 3, 3)
    if bad:
        failures.append(("scaling", bad))

    bad = _transfer_counterexample(24)
    if bad:
        failures.append(("transfer", bad))

    _report(
        7,
        "property suites (compprop, invariances, disjoint, scaling, transfer)",
        not failures,
        time.time() - start,
        detail=str(failures[:1]),
    )


def test_criterion_08_dominance():
    start = time.time()
    g30 = build_graph(30, 6)
    dom30 = dominant_vertices(g30)
    g36 = build_graph(36, 4)
    dom36 = dominant_vertices(g36)
    ok = PrimitiveSet((1, 2, 3, 6)) in dom30 and bool(g36.vertices) and bool(dom36)
    _report(
        8,
        "dominant vertices in G(30,6) and G(36,4)",
        ok,
        time.time() - start,
        300,
        f"dom30={[str(v) for v in dom30]}, dom36={[str(v) for v in dom36]}",
    )


def _brute_force_graph(m, n):
    """All-pairs search with no equivalence-class pruning: every unordered
    pair of n-subsets is tested with a direct complex Gram check."""
    subsets = list(combinations(range(m), n))
    vertices = set()
    edges = set()
    for i, j_elems in enumerate(subsets):
        for k_elems in subsets[i:]:
            cols = [[cmath.exp(2j * cmath.pi * a * b / m) for a in j_elems] for b in k_elems]
            gram_ok = all(
                abs(sum(x.conjugate() * y for x, y in zip(cols[p], cols[q])) - (n if p == q else 0))
                < 1e-9
                for p in range(n)
                for q in range(p, n)
            )
            if gram_ok:
                pj = frozenset(m // gcd(m, a - b) for a, b in combinations(j_elems, 2)) | {1}
                pk = frozenset(m // gcd(m, a - b) for a, b in combinations(k_elems, 2)) | {1}
                vertices.add(pj)
                vertices.add(pk)
                edges.add((min(pj, pk, key=sorted), max(pj, pk, key=sorted)))
    return vertices, edges


def test_criterion_09_brute_force_equivalence():
    start = time.time()
    ok = True
    detail = ""
    for m in range(1, 17):
        for n in range(1, min(3, m) + 1):
            bv, be = _brute_force_graph(m, n)
            g = build_graph(m, n)
            gv = {frozenset(v.elements) for v in g.vertices}
            ge = {
                (min(fp, fq, key=sorted), max(fp, fq, key=sorted))
                for fp, fq in (
                    (frozenset(p.elements), frozenset(q.elements)) for p, q in g.edges
                )
            }
            if bv != gv or be != ge:
                ok = False
                detail = f"mismatch at G({m},{n})"
                break
        if not ok:
            break
    _report(9, "brute-force graph equivalence (m<=16, n<=3)", ok, time.time() - start, 120, detail)


def test_criterion_10_exact_numeric_cross_validation():
    start = time.time()
    rng = random.Random(1010)
    disagreements = 0
    for _ in range(10000):
        m = rng.randint(2, 60)
        n = rng.randint(1, min(6, m))
        s = SubmatrixSpec.of(m, tuple(rng.sample(range(m), n)), tuple(rng.sample(range(m), n)))
        if is_hadamard_exact(s).decision is not is_hadamard_numeric(s, tol=1e-9).decision:
            disagreements += 1
    _report(
        10,
        "exact vs numeric on 10000 random specs (m<=60, n<=6, tol 1e-9)",
        disagreements == 0,
        time.time() - start,
        detail=f"{disagreements} disagreements",
    )
