"""The fhad benchmark: fresh ``fhad`` processes on three seeded workloads.

    python3 bench/run.py --workload graph_build --seed 1 --seconds 40 --trace 0

Each case is one ``python -m fourier_hadamard.cli ...`` process with
``PYTHONPATH=src``, run one after another (a closed loop with one client).
A run repeats passes over the workload's cases, in an order drawn from the
seed, until ``--seconds`` would be exceeded, and checks every output against
its expectation (see ``cases.py``).  Workloads:

- graph_build: ``fhad graph`` with both exports for G(180,3), G(30,6),
  G(40,5) and G(72,4) at the default ``--threads``.  Subset enumeration
  (``primsets``), the threaded pair phase and export (``graphs``).
- test_large_m: ``fhad test`` with n in {4, 6} at m in {2520, 5040}, one
  Hadamard case (every s of P(J) tested) and one random early-exit case
  each.  Dense cyclotomics and division (``numtheory``).
- verify_sweeps: every ``fhad verify`` suite.  Closed forms against the
  exact oracle, memo hits, ``factorize`` (``hadamard``, ``numtheory``) and
  many small graph builds (``sweeps``).

With ``--trace 0`` the last stdout line carries the end-to-end metrics:
``setup_s`` (median wall time of a trivial ``fhad primset`` process),
``wall_s`` and ``cpu_s`` (a pass: the sum over cases of each case's median
wall time, and of its median user+sys time) and ``peak_rss_mb`` (the largest
median maxrss of any case).  With ``--trace 1``, untraced and traced passes
alternate and the line carries the per-layer metrics that ``tracer.py``
collects in each child, medians over traced passes.  Failed cases (wrong
exit code, output or export, or a timeout) are counted in ``failed``; the
command then exits 1 after printing the result.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path
from statistics import median

sys.path.insert(0, str(Path(__file__).resolve().parent))

from cases import WORKLOADS, Case, check_outputs, fixed_case, load_expected, workload_cases  # noqa: E402
from tracer import SUITES  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
TRACER = Path(__file__).resolve().with_name("tracer.py")
TMP_PARENT = ROOT / ".bench_tmp"

# Setup probes run at the start of a run and after every pass, so that
# their median spans the whole run like the case medians do.
SETUP_PROBES_FIRST = 2
CASE_TIMEOUT_S = 60.0
# Every run ends within this many seconds, whatever --seconds says.
HARD_LIMIT_S = 160.0

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


@dataclass
class Execution:
    case: Case
    wall_s: float
    cpu_s: float
    rss_mb: float
    errors: list[str]
    pass_no: int
    trace: dict | None = None


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    # The pickle cache would carry cyclotomics from one case to the next.
    env.pop("FH_CACHE_DIR", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


class Runner:
    """Runs cases as child processes, times them and checks their outputs."""

    def __init__(self, workdir: Path, deadline: float):
        self.workdir = workdir
        self.hard_stop = deadline
        self.env = child_env()
        self.executions: list[Execution] = []

    def remaining(self) -> float:
        return self.hard_stop - time.perf_counter()

    def run(self, case: Case, traced: bool = False, pass_no: int = -1) -> Execution:
        out_dir = Path(tempfile.mkdtemp(dir=self.workdir))
        argv = [a.replace("{out}", str(out_dir)) for a in case.argv]
        trace_file = out_dir / "trace.json"
        if traced:
            cmd = [sys.executable, str(TRACER), str(trace_file), "--", *argv]
        else:
            cmd = [sys.executable, "-m", "fourier_hadamard.cli", *argv]
        timeout = min(CASE_TIMEOUT_S, self.remaining())
        stdout_path = out_dir / "stdout"
        with open(stdout_path, "wb") as out, open(out_dir / "stderr", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=out, stderr=err)
            done = threading.Event()
            timed_out = threading.Event()

            def kill():
                if not done.is_set():
                    timed_out.set()
                    os.kill(proc.pid, signal.SIGKILL)

            timer = threading.Timer(max(timeout, 0.0), kill)
            timer.start()
            # wait4 reaps the child and returns its own rusage
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            done.set()
            timer.cancel()
            proc.returncode = code = os.waitstatus_to_exitcode(status)
        stdout = stdout_path.read_bytes()
        exports = {}
        for kind in ("json", "dot"):
            path = out_dir / f"g.{kind}"
            if path.exists():
                exports[kind] = path.read_bytes()
        if timed_out.is_set():
            errors = [f"timed out after {timeout:.0f} s"]
        else:
            errors = check_outputs(case, code, stdout, exports)
        trace = None
        if traced and not errors:
            try:
                trace = json.loads(trace_file.read_text(encoding="utf-8"))
            except (OSError, ValueError) as exc:
                errors.append(f"no trace written: {exc}")
        if errors:
            stderr_tail = (out_dir / "stderr").read_text(errors="replace")[-400:]
            print(f"FAILED {case.label}: {'; '.join(errors)}\n{stderr_tail}", file=sys.stderr)
        shutil.rmtree(out_dir)
        execution = Execution(
            case, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
            errors, pass_no, trace,
        )
        self.executions.append(execution)
        return execution


def pass_summary(executions: list[Execution], cases: list[Case]) -> dict[str, float]:
    """Per-case medians over passes, summed (times) or maxed (memory)."""
    by_case = {c.label: [e for e in executions if e.case.label == c.label] for c in cases}
    ran = [runs for runs in by_case.values() if runs]
    return {
        "wall_s": sum(median(e.wall_s for e in runs) for runs in ran),
        "cpu_s": sum(median(e.cpu_s for e in runs) for runs in ran),
        "peak_rss_mb": max(median(e.rss_mb for e in runs) for runs in ran),
    }


def print_case_table(executions: list[Execution]) -> None:
    """Per-case timings on stderr, for reading a run; not part of the result."""
    rows: dict[tuple[str, bool], list[Execution]] = {}
    for e in executions[1:]:
        rows.setdefault((e.case.label, e.trace is not None), []).append(e)
    for (label, traced), runs in rows.items():
        walls = [e.wall_s for e in runs]
        print(f"# {label:28s}{' traced' if traced else '':7s} n={len(runs):2d} "
              f"wall median {median(walls):7.3f} min {min(walls):7.3f} max {max(walls):7.3f} "
              f"cpu {median(e.cpu_s for e in runs):7.3f} rss {median(e.rss_mb for e in runs):6.1f}",
              file=sys.stderr)


def run_passes(runner: Runner, cases: list[Case], rng: random.Random,
               seconds_end: float, traced_modes: tuple[bool, ...],
               probe: Case | None = None) -> None:
    """Repeat passes, cycling through traced_modes, while the next pass is
    expected to end before seconds_end.  Every mode runs at least once.
    The probe case, if given, runs after every pass."""
    durations: dict[bool, list[float]] = {mode: [] for mode in traced_modes}
    i = 0
    while True:
        mode = traced_modes[i % len(traced_modes)]
        if i >= len(traced_modes):
            expected = median(durations[mode])
            if time.perf_counter() + expected > seconds_end:
                break
        order = cases[:]
        rng.shuffle(order)
        start = time.perf_counter()
        for case in order:
            if runner.remaining() <= 0:
                return
            runner.run(case, traced=mode, pass_no=i)
        if probe is not None:
            runner.run(probe)
        durations[mode].append(time.perf_counter() - start)
        i += 1


def layer_metrics(traces: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced pass, from the traces of its cases."""

    def stat(name: str, key: str) -> float:
        return sum(t["stats"].get(name, {}).get(key, 0) for t in traces)

    def count(key: str) -> int:
        return sum(t["counts"].get(key, 0) for t in traces)

    out: dict[str, float] = {
        "cli.import_s": median(t["import_s"] for t in traces),
        "cli.numpy_loaded": sum(1 for t in traces if t["numpy_loaded"]),
    }
    for span in (
        "primsets.primitive_set", "primsets.ResidueSet", "graphs.build_graph",
        "graphs.reverify", "hadamard.is_hadamard", "hadamard.exact",
        "hadamard.closed_form", "numtheory.cyclotomic", "numtheory.poly_divides",
        "numtheory.factorize",
    ):
        out[f"{span}.calls"] = stat(span, "calls")
        out[f"{span}.self_s"] = stat(span, "self_s")
    out["graphs.export.self_s"] = stat("graphs.export", "self_s")
    out["graphs.subsets"] = sum(
        t["stats"].get("primsets.primitive_set", {}).get("sites", {}).get("graphs", 0)
        for t in traces
    )
    for key in ("buckets", "pairs", "edges"):
        out[f"graphs.{key}"] = count(f"graphs.{key}")
    out["graphs.edge_ratio"] = out["graphs.edges"] / out["graphs.pairs"] if out["graphs.pairs"] else 0.0
    out["graphs.pair_threads"] = max(t["counts"].get("graphs.pair_threads", 0) for t in traces)
    hits = sum(t["vanishing_memo"]["hits"] for t in traces)
    misses = sum(t["vanishing_memo"]["misses"] for t in traces)
    out["hadamard.vanishing.misses"] = misses
    out["hadamard.vanishing.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    out["numtheory.cyclotomic.max_s"] = max(t["cyclotomic_memo"]["max_s"] for t in traces)
    out["numtheory.cyclotomic.coeffs"] = sum(t["cyclotomic_memo"]["coeffs"] for t in traces)
    out["numtheory.poly_divides.ops"] = count("numtheory.poly_divides.ops")
    for suite in SUITES.values():
        out[f"sweeps.suite.{suite}.s"] = stat(f"sweeps.suite.{suite}", "total_s")
    out["sweeps.build_graph.calls"] = sum(len(t["sweep_builds"]) for t in traces)
    out["sweeps.build_graph.distinct"] = sum(
        len({tuple(k) for k in t["sweep_builds"]}) for t in traces
    )
    return out


def per_layer_units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def environment(args) -> dict:
    rev = None
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            rev = None
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy_version,
        "git_rev": rev,
        "fh_cache_dir": "unset",
        "threads": "fhad default",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "fourier_hadamard" / "cli.py").is_file():
        print(f"error: no fourier_hadamard sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    start = time.perf_counter()
    expected = load_expected()
    cases = workload_cases(args.workload, args.seed, expected)
    setup = fixed_case("setup primset", expected)
    rng = random.Random(f"order:{args.workload}:{args.seed}")
    print("# env " + json.dumps(environment(args)), flush=True)

    TMP_PARENT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=TMP_PARENT))
    runner = Runner(workdir, start + HARD_LIMIT_S)
    try:
        # first process compiles the package's bytecode; not timed
        runner.run(setup)
        seconds_end = start + args.seconds
        if args.trace:
            run_passes(runner, cases, rng, seconds_end, (False, True))
        else:
            for _ in range(SETUP_PROBES_FIRST):
                runner.run(setup)
            run_passes(runner, cases, rng, seconds_end, (False,), probe=setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            TMP_PARENT.rmdir()
        except OSError:
            pass

    executions = runner.executions
    failed = sum(1 for e in executions if e.errors)
    if args.trace:
        plain = [e for e in executions if e.pass_no >= 0 and e.pass_no % 2 == 0]
        traced = [e for e in executions if e.pass_no % 2 == 1]
        passes = {}
        for e in traced:
            passes.setdefault(e.pass_no, []).append(e.trace)
        per_pass = [
            layer_metrics(traces) for traces in passes.values()
            if len(traces) == len(cases) and None not in traces
        ]
        values = {name: median(p[name] for p in per_pass) for name in per_pass[0]} if per_pass else {}
        if plain and traced:
            values["trace.overhead_frac"] = (
                pass_summary(traced, cases)["wall_s"] / pass_summary(plain, cases)["wall_s"] - 1.0
            )
        units = per_layer_units()
        complete = bool(per_pass) and bool(plain)
        if complete and set(units) != set(values):
            raise RuntimeError(f"per-layer metrics differ from BENCHMARK.json: "
                               f"{sorted(set(units) ^ set(values))}")
        metrics = {name: {"value": values.get(name, 0.0), "unit": unit} for name, unit in units.items()}
    else:
        values = pass_summary([e for e in executions if e.pass_no >= 0], cases)
        values["setup_s"] = median(e.wall_s for e in executions[1:] if e.case == setup)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
        complete = True
    print_case_table(executions)
    result = {
        "correct": failed == 0 and complete,
        "attempted": len(executions),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
