"""Command-line frontend.

Subcommands: ``primset`` (per-set diagnostics), ``test`` (Hadamard decision
with explanation), ``graph`` (build and export compatibility graphs),
``verify`` (run verification sweeps), ``classify`` (look up the submatrix
size tied to a divisor set).

Exit codes: 0 success or decided-positive, 1 decided-negative for yes/no
queries, 2 usage error, file error or out of memory, 3 internal verification
failure.
"""

from __future__ import annotations

import argparse
import sys
from math import inf

# the graph and sweep layers, and json, are imported by the subcommands
# that use them, so `fhad test` and `fhad primset` never load them
from .hadamard import (
    Decision,
    Screen,
    SubmatrixSpec,
    is_hadamard,
    is_hadamard_exact,
    is_hadamard_numeric,
    screen_prime_powers,
    screen_size_divisor,
)
from .primsets import ResidueSet, difference_set, primitive_set, size_divisor

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_VERIFY = 3


def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise ValueError(f"expected comma-separated integers, got {text!r}")


def _parse_elements(text: str) -> tuple[int, ...]:
    values = _parse_int_list(text)
    if len(set(values)) != len(values):
        raise ValueError(f"duplicate elements in {text!r}")
    return tuple(values)


def _fmt_set(values) -> str:
    return "{" + ",".join(str(v) for v in values) + "}"


def _fmt_witness(witness: dict | None) -> str:
    if not witness:
        return ""
    kind = witness.get("kind")
    if kind == "cyclotomic":
        return f"cyclotomic polynomial of order {witness['s']} does not divide K(z)"
    if kind == "balance":
        p = witness["prime"]
        return (
            f"nu_{p} imbalance: min sum {witness['min_sum']}, "
            f"max sum {witness['max_sum']}, required {witness['required']}"
        )
    if kind == "excess":
        p = witness["prime"]
        return f"nu_{p} sum {witness['max_sum']} > {witness['limit']}"
    if kind == "gram":
        return f"max |H*H - nI| deviation {witness['deviation']:.3e}"
    return str(witness)


def cmd_primset(args) -> int:
    x = ResidueSet(args.m, _parse_elements(args.elements))
    diffs = sorted(difference_set(x))
    prims = primitive_set(x)
    c = size_divisor(prims)
    size_screen = screen_size_divisor(prims, len(x))
    power_screen = screen_prime_powers(args.m, prims)
    if args.format == "json":
        import json

        doc = {
            "m": args.m,
            "elements": list(x.elements),
            "difference_set": diffs,
            "primitive_set": list(prims.elements),
            "size_divisor": c,
            "size_screen": size_screen.value,
            "prime_power_screen": power_screen.value,
        }
        print(json.dumps(doc, indent=2))
        return EXIT_OK
    print(f"m = {args.m}")
    print(f"X = {x}")
    print(f"D(X) = {_fmt_set(diffs)}")
    print(f"P(X) = {prims}")
    print(f"size divisor C = {c}")
    if size_screen is Screen.RULED_OUT:
        print(
            f"size screen: ruled out ({c} does not divide |X| = {len(x)}; "
            f"no {len(x)}x{len(x)} Hadamard submatrix has this row set)"
        )
    else:
        print(f"size screen: inconclusive ({c} divides |X| = {len(x)})")
    if power_screen is Screen.RULED_OUT:
        print(
            "prime power screen: ruled out (primitive set has every prime-power "
            "divisor of m but misses another divisor)"
        )
    else:
        print("prime power screen: inconclusive")
    return EXIT_OK


def cmd_test(args) -> int:
    # checked for every oracle, not only when the numeric one runs
    if not 0 < args.tol < inf:
        raise ValueError(f"tolerance must be positive and finite, got {args.tol}")
    j = ResidueSet(args.m, _parse_elements(args.rows))
    k = ResidueSet(args.m, _parse_elements(args.columns))
    spec = SubmatrixSpec(args.m, j, k)
    if args.oracle == "exact":
        verdict = is_hadamard_exact(spec)
    elif args.oracle == "numeric":
        verdict = is_hadamard_numeric(spec, tol=args.tol)
    elif args.oracle == "both":
        exact = is_hadamard_exact(spec)
        numeric = is_hadamard_numeric(spec, tol=args.tol)
        if exact.decision is not numeric.decision:
            print(
                "oracle disagreement: exact says "
                f"{exact.decision.value}, numeric says {numeric.decision.value}",
                file=sys.stderr,
            )
            return EXIT_VERIFY
        verdict = exact
    else:
        verdict = is_hadamard(spec)
    if args.format == "json":
        import json

        doc = {
            "m": args.m,
            "rows": list(j.elements),
            "columns": list(k.elements),
            "decision": verdict.decision.value,
            "rule": verdict.rule,
            "witness": verdict.witness,
        }
        print(json.dumps(doc, indent=2))
    else:
        print(f"H_(J,K) of F_{args.m} with J = {j}, K = {k}")
        print(f"decision: {verdict.decision.value}")
        print(f"rule: {verdict.rule}")
        detail = _fmt_witness(verdict.witness)
        if detail:
            print(f"witness: {detail}")
    return EXIT_OK if verdict.decision is Decision.HADAMARD else EXIT_NEGATIVE


def _builds_graphs(command):
    """Run a subcommand that builds graphs, reporting a failed edge
    re-verification as exit code 3."""

    def run(args) -> int:
        from .graphs import VerificationError

        try:
            return command(args)
        except VerificationError as exc:
            print(f"verification failure: {exc}", file=sys.stderr)
            return EXIT_VERIFY

    return run


@_builds_graphs
def cmd_graph(args) -> int:
    from .graphs import build_graph, dominant_vertices, export_dot, export_json

    graph = build_graph(args.m, args.n)
    for path, export in ((args.dot, export_dot), (args.json, export_json)):
        if path:
            with open(path, "w", encoding="utf-8") as out:
                out.write(export(graph))
    if not graph.vertices:
        print(
            f"G({args.m},{args.n}) is empty: no {args.n}x{args.n} Hadamard "
            f"submatrix of F_{args.m} exists"
        )
        return EXIT_OK
    print(f"G({args.m},{args.n}): |V| = {len(graph.vertices)}, |E| = {len(graph.edges)}")
    print("vertices:")
    for v in sorted(graph.vertices):
        print(f"  {v}  (witness {graph.representatives[v]})")
    dom = dominant_vertices(graph)
    if dom:
        print("dominant vertices: " + ", ".join(str(v) for v in dom))
    else:
        print("dominant vertices: none")
    return EXIT_OK


def nonnegative_int(text: str) -> int:
    # a negative sweep bound would check nothing and still report a pass
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


@_builds_graphs
def cmd_verify(args) -> int:
    from . import sweeps

    failures = []

    def run_counts():
        rows, bad = sweeps.check_counts_power_of_two(args.q_max)
        for q, nv, ne in rows:
            print(f"G(2^{q},2): |V| = {nv}, |E| = {ne}, expected ({q}, {(q + 1) // 2})")
        return bad

    def run_disjoint():
        m_values = [args.m] if args.m is not None else list(range(2, (args.m_max or 24) + 1))
        n_values = _parse_int_list(args.n) if args.n else list(range(1, args.n_max + 1))
        bad = sweeps.check_disjoint(m_values, n_values)
        # printed once the sweep has accepted its bounds: a refused one prints nothing
        print(f"disjoint vertex sets over m in {m_values[0]}..{m_values[-1]}, n in {n_values}")
        return bad

    suite_runners = {
        "compprop": lambda: sweeps.check_compprop(
            m_max=args.m_max or 20, samples=args.samples
        ),
        "disjoint": run_disjoint,
        "scaling": lambda: sweeps.check_scaling(args.m_max or 12, args.v_max, args.n_max),
        "oracle2": lambda: sweeps.check_oracle_2x2(args.m_max or 48),
        "oracle3": lambda: sweeps.check_oracle_3x3(args.m_max or 30),
        "counts2q": run_counts,
    }
    names = list(suite_runners) if args.suite == "all" else [args.suite]
    for name in names:
        bad = suite_runners[name]()
        if bad:
            failures.append(bad)
            print(f"suite {name}: FAIL", file=sys.stderr)
            print(f"counterexample: {bad}", file=sys.stderr)
        else:
            print(f"suite {name}: pass")
    return EXIT_VERIFY if failures else EXIT_OK


@_builds_graphs
def cmd_classify(args) -> int:
    from .graphs import classify_submatrix_size

    elements = _parse_elements(args.elements)
    candidates = _parse_int_list(args.m) if args.m else []
    if not candidates:
        raise ValueError("at least one candidate modulus is required (--m)")
    n = classify_submatrix_size(elements, candidates)
    if args.format == "json":
        import json

        print(json.dumps({"elements": sorted(elements), "size": n}, indent=2))
        return EXIT_OK
    if n:
        print(f"{_fmt_set(sorted(elements))} is the primitive set of a row set of a "
              f"{n}x{n} Hadamard submatrix")
    else:
        print("not found within candidates")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fhad",
        description="Exact tests for Hadamard submatrices of Fourier matrices",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_prim = sub.add_parser("primset", help="difference set, primitive set, and screens")
    p_prim.add_argument("-m", type=int, required=True, help="modulus")
    p_prim.add_argument("elements", help="comma-separated residues, e.g. 0,5,375")
    p_prim.add_argument("--format", choices=("human", "json"), default="human")
    p_prim.add_argument(
        "--json", dest="format", action="store_const", const="json",
        help="shorthand for --format json",
    )
    p_prim.set_defaults(func=cmd_primset)

    p_test = sub.add_parser("test", help="decide whether H_(J,K) is Hadamard")
    p_test.add_argument("-m", type=int, required=True, help="modulus")
    p_test.add_argument("-J", dest="rows", required=True, help="row residues")
    p_test.add_argument("-K", dest="columns", required=True, help="column residues")
    p_test.add_argument(
        "--oracle", choices=("auto", "exact", "numeric", "both"), default="auto"
    )
    p_test.add_argument("--tol", type=float, default=1e-9, help="numeric tolerance, > 0 and finite")
    p_test.add_argument("--format", choices=("human", "json"), default="human")
    p_test.set_defaults(func=cmd_test)

    p_graph = sub.add_parser("graph", help="build the compatibility graph G(m,n)")
    p_graph.add_argument("-m", type=int, required=True, help="modulus")
    p_graph.add_argument("-n", type=int, required=True, help="submatrix size")
    p_graph.add_argument("--dot", metavar="PATH", help="write DOT export here")
    p_graph.add_argument("--json", metavar="PATH", help="write JSON export here")
    p_graph.set_defaults(func=cmd_graph)

    p_verify = sub.add_parser("verify", help="run verification sweeps")
    p_verify.add_argument(
        "suite",
        choices=("compprop", "disjoint", "scaling", "oracle2", "oracle3", "counts2q", "all"),
    )
    p_verify.add_argument("-m", type=int, help="single modulus (disjoint)")
    p_verify.add_argument("--m-max", type=nonnegative_int, default=0, help="modulus sweep bound")
    p_verify.add_argument("--n", help="comma-separated sizes (disjoint)")
    p_verify.add_argument("--n-max", type=nonnegative_int, default=4, help="size sweep bound")
    p_verify.add_argument("--v-max", type=nonnegative_int, default=3, help="scale factor bound")
    p_verify.add_argument("--q-max", type=nonnegative_int, default=8, help="power-of-two bound")
    p_verify.add_argument("--samples", type=nonnegative_int, default=10000, help="random cases")
    p_verify.set_defaults(func=cmd_verify)

    p_cls = sub.add_parser("classify", help="submatrix size tied to a divisor set")
    p_cls.add_argument("elements", help="comma-separated divisor set, e.g. 1,3")
    p_cls.add_argument("--m", required=True, help="comma-separated candidate moduli")
    p_cls.add_argument("--format", choices=("human", "json"), default="human")
    p_cls.set_defaults(func=cmd_classify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
