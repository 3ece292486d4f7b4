"""Span tracer for one traced ``fhad`` case, loaded from outside the package.

Run as a script, it stands in for ``python -m fourier_hadamard.cli``::

    PYTHONPATH=src python3 bench/tracer.py OUT.json -- graph -m 30 -n 6

It imports the package, wraps the public functions of every layer at each
name a caller resolves (``graphs.primitive_set`` and
``primsets.primitive_set`` are separate bindings of one function, and
``numtheory.cyclotomic`` is reached through its own recursive global), calls
``fourier_hadamard.cli.main(argv)`` and writes what it saw to OUT.json when
the command ends.  The program's files are not edited, and stdout, the
exports and the exit code are those of the untraced command.

A span is (name, start, end, parent, thread).  Self time is a span's
duration minus the time its child spans cover: children on the same thread
run one after another, so their durations add up; children on pool threads
overlap each other, so the union of their intervals is taken.  A span that
opens on a pool thread with nothing open there is a child of the innermost
span open on the main thread, which is the call that started the pool.
Times of spans on pool threads include waits for the interpreter lock.

Fine-grained layers are called millions of times per case (the 3x3 oracle
sweep makes millions of ``factorize`` calls), so their spans are folded into
per-(name, call site, thread) totals as they close.  Spans of the coarse
boundaries in ``KEPT`` are kept whole in memory and written at exit.
"""

from __future__ import annotations

import importlib
import json
import sys
import threading
import time
from math import isqrt

perf_counter = time.perf_counter

# Span names kept whole in the output; every other span is only aggregated.
KEPT = ("cli.main", "graphs.build_graph", "graphs.reverify", "graphs.export")


def covered_length(intervals, start: float, end: float) -> float:
    """Length of the union of intervals, clipped to [start, end]."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, start), min(hi, end)
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class _ThreadState:
    """Per-thread stack of open frames and per-thread totals.

    Totals are kept per thread so that pool threads never update a shared
    counter; they are summed when the case ends.
    """

    def __init__(self, index: int):
        self.index = index
        self.stack: list[list] = []
        # (name, site) -> [calls, total_s, self_s]
        self.stats: dict[tuple[str, str], list] = {}
        self.counts: dict[str, int] = {}


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self.threads: list[_ThreadState] = []
        self.main = self._state()
        self.spans: list[tuple] = []
        self.build_keys: list[tuple[int, int]] = []
        self.sweep_depth = 0

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            with self._lock:
                state = _ThreadState(len(self.threads))
                self.threads.append(state)
            self._local.state = state
            return state

    def wrap(self, name: str, site: str, fn, pre=None, post=None):
        """Return fn wrapped in a span called name, counted under site.

        pre(args) runs before the call and its result goes to
        post(args, result, token) after a normal return.
        """
        tracer = self

        def traced(*args, **kwargs):
            state = tracer._state()
            stack = state.stack
            cross = False
            if stack:
                parent = stack[-1]
            elif state is not tracer.main and tracer.main.stack:
                parent, cross = tracer.main.stack[-1], True
            else:
                parent = None
            # frame: name, start, same-thread child time, pool-thread child intervals
            frame = [name, 0.0, 0.0, None]
            stack.append(frame)
            token = pre(args) if pre is not None else None
            start = frame[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer._close(state, frame, site, parent, cross, start, end)
            if post is not None:
                post(args, result, token)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _close(self, state, frame, site, parent, cross, start, end):
        duration = end - start
        cover = frame[2]
        if frame[3]:
            cover += covered_length(frame[3], start, end)
        self_time = duration - cover if cover < duration else 0.0
        key = (frame[0], site)
        entry = state.stats.get(key)
        if entry is None:
            entry = state.stats[key] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += duration
        entry[2] += self_time
        if frame[0] in KEPT:
            self.spans.append(
                (frame[0], start, end, parent[0] if parent else None, state.index)
            )
        if parent is None:
            return
        if cross:
            with self._lock:
                if parent[3] is None:
                    parent[3] = []
                parent[3].append((start, end))
        else:
            parent[2] += duration

    def count(self, key: str, amount: int = 1) -> None:
        counts = self._state().counts
        counts[key] = counts.get(key, 0) + amount

    def calls_by_thread(self, key: tuple[str, str]) -> list[int]:
        return [s.stats.get(key, (0,))[0] for s in self.threads]

    def report(self) -> dict:
        stats: dict[str, dict] = {}
        counts: dict[str, int] = {}
        for state in self.threads:
            for (name, site), (calls, total, self_time) in state.stats.items():
                entry = stats.setdefault(
                    name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "sites": {}}
                )
                entry["calls"] += calls
                entry["total_s"] += total
                entry["self_s"] += self_time
                entry["sites"][site] = entry["sites"].get(site, 0) + calls
            for key, value in state.counts.items():
                counts[key] = counts.get(key, 0) + value
        return {"stats": stats, "counts": counts, "spans": self.spans}


# Public functions traced, by span name.  Grouped names take several
# functions of one layer.
FUNCTIONS = {
    "primsets.primitive_set": ("primsets", "primitive_set"),
    "graphs.build_graph": ("graphs", "build_graph"),
    "graphs.reverify": ("graphs", "_reverify_edges"),
    "graphs.export": ("graphs", "export_dot", "export_json"),
    "hadamard.is_hadamard": ("hadamard", "is_hadamard"),
    "hadamard.exact": ("hadamard", "is_hadamard_exact"),
    "hadamard.closed_form": (
        "hadamard",
        "decide_2x2_general",
        "decide_3x3",
        "decide_2x2_power_of_two",
        "decide_2x2_twice_prime",
    ),
    "numtheory.cyclotomic": ("numtheory", "cyclotomic"),
    "numtheory.poly_divides": ("numtheory", "poly_divides"),
    "numtheory.factorize": ("numtheory", "factorize"),
}

SUITES = {
    "check_compprop": "compprop",
    "check_disjoint": "disjoint",
    "check_scaling": "scaling",
    "check_oracle_2x2": "oracle2",
    "check_oracle_3x3": "oracle3",
    "check_counts_power_of_two": "counts2q",
}

PACKAGE_MODULES = ("numtheory", "primsets", "hadamard", "graphs", "sweeps", "cli")


def install(tracer: Tracer) -> dict:
    """Wrap the package's layers in place; returns the package modules."""
    modules = {
        name: importlib.import_module(f"fourier_hadamard.{name}")
        for name in PACKAGE_MODULES
    }
    modules["__init__"] = importlib.import_module("fourier_hadamard")
    pair_key = ("hadamard.is_hadamard", "graphs")

    def poly_divides_post(args, result, token):
        d, f = args[0], args[1]
        if f and f.degree >= d.degree:
            # multiply-subtracts of dense long division, computed from degrees
            tracer.count("numtheory.poly_divides.ops",
                         (f.degree - d.degree + 1) * len(d.coeffs))

    def build_pre(args):
        if tracer.sweep_depth:
            tracer.build_keys.append((args[0], args[1]))
        return tracer.calls_by_thread(pair_key)

    def build_post(args, result, before):
        after = tracer.calls_by_thread(pair_key)
        before = before + [0] * (len(after) - len(before))
        pairs = sum(after) - sum(before)
        tracer.count("graphs.pairs", pairs)
        tracer.count("graphs.buckets", (isqrt(8 * pairs + 1) - 1) // 2)
        tracer.count("graphs.edges", len(result.edges))
        threads = sum(1 for a, b in zip(after, before) if a > b)
        if threads > tracer.main.counts.get("graphs.pair_threads", 0):
            tracer.main.counts["graphs.pair_threads"] = threads

    hooks = {
        "numtheory.poly_divides": (None, poly_divides_post),
        "graphs.build_graph": (build_pre, build_post),
    }
    for span, (home, *attrs) in FUNCTIONS.items():
        pre, post = hooks.get(span, (None, None))
        for attr in attrs:
            # a function the program no longer has reads as zero calls
            original = getattr(modules[home], attr, None)
            if original is None:
                continue
            for site, module in modules.items():
                if getattr(module, attr, None) is original:
                    setattr(module, attr, tracer.wrap(span, site, original, pre, post))

    sweeps = modules["sweeps"]

    def enter_sweep(args):
        tracer.sweep_depth += 1

    def leave_sweep(args, result, token):
        tracer.sweep_depth -= 1

    for attr, suite in SUITES.items():
        original = getattr(sweeps, attr, None)
        if original is None:
            continue
        # a suite that raises leaves sweep_depth raised; the case then fails anyway
        setattr(sweeps, attr, tracer.wrap(
            f"sweeps.suite.{suite}", "sweeps", original, enter_sweep, leave_sweep))

    residue_set = modules["primsets"].ResidueSet
    residue_set.__init__ = tracer.wrap(
        "primsets.ResidueSet", "primsets", residue_set.__init__)
    return modules


def run(out_path: str, argv: list[str]) -> int:
    """Import, instrument and run one CLI command; write the trace at exit."""
    t0 = perf_counter()
    import fourier_hadamard.cli as cli

    import_s = perf_counter() - t0
    tracer = Tracer()
    modules = install(tracer)
    main = tracer.wrap("cli.main", "cli", cli.main)
    code = 1
    try:
        code = main(argv)
    except SystemExit as exc:
        code = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
    finally:
        # The two memos are read while the program has them; without one,
        # its metrics read zero.
        memo = getattr(modules["numtheory"], "_cyclotomic_cache", {})
        vanishing = getattr(modules["hadamard"], "_cyclotomic_divides", None)
        info = vanishing.cache_info() if hasattr(vanishing, "cache_info") else None
        doc = tracer.report()
        doc.update(
            import_s=import_s,
            numpy_loaded="numpy" in sys.modules,
            cyclotomic_memo={
                "entries": len(memo),
                "coeffs": sum(len(p.coeffs) for p in memo.values()),
                "max_s": max(memo, default=0),
            },
            vanishing_memo={"hits": info.hits if info else 0,
                            "misses": info.misses if info else 0},
            sweep_builds=tracer.build_keys,
        )
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    return code


if __name__ == "__main__":
    if len(sys.argv) < 3 or sys.argv[2] != "--":
        print("usage: tracer.py OUT.json -- FHAD-ARGS...", file=sys.stderr)
        sys.exit(2)
    sys.exit(run(sys.argv[1], sys.argv[3:]))
