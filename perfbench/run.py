"""Benchmark of tverlab: three workloads, measured from outside the program.

    python3 perfbench/run.py --workload {profile,search,cli} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source tree; tverlab is imported from its ``src/``.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics from a traced run with ``--trace 1``.
A fuller result file, and with ``--trace 1`` the spans, go to
``perfbench/out/``. The exit code is 0 only when every answer checked out.
See perfbench/README.md for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
from workloads import WORKLOADS, child_env

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
# This process plus fresh ones, spread between the passes: the host's speed
# drifts over seconds, so set-ups made back to back would share one stretch.
SETUP_REPEATS = 9
IMPORT_PROBES = 5


class BenchmarkError(RuntimeError):
    pass


def import_tverlab():
    """Import tverlab from this tree's src/ and refuse any other copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import tverlab
    except ImportError as exc:
        raise BenchmarkError(f"cannot import tverlab from {src}: {exc}") from exc
    origin = Path(tverlab.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise BenchmarkError(f"tverlab was imported from {origin}, not from {src}")
    return tverlab


def setup(workload: str, seed: int):
    """Imports and input generation; returns (tverlab, workload, seconds)."""
    t0 = time.perf_counter()
    tl = import_tverlab()
    wl = WORKLOADS[workload](tl, seed, ROOT)
    return tl, wl, time.perf_counter() - t0


def run_child(argv, timeout=120):
    proc = subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          cwd=ROOT, env=child_env(ROOT), timeout=timeout)
    if proc.returncode != 0:
        raise BenchmarkError(f"child {argv} exited {proc.returncode}: {proc.stderr[-800:]}")
    return proc.stdout


def setup_in_child(workload: str, seed: int) -> float:
    """Set up once more in a fresh interpreter, which also asserts that it
    imports tverlab from this tree."""
    out = run_child([str(Path(__file__)), "--workload", workload, "--seed", str(seed),
                     "--setup-only"])
    return json.loads(out.splitlines()[-1])["setup_s"]


def assert_child_imports_from_src() -> None:
    out = run_child(["-c", "import tverlab; print(tverlab.__file__)"])
    origin = Path(out.strip()).resolve()
    if (ROOT / "src").resolve() not in origin.parents:
        raise BenchmarkError(f"child processes import tverlab from {origin}, not from src/")


def import_ms() -> float:
    """Median fresh-interpreter time of ``import tverlab`` minus that of an
    empty program, in ms."""
    def median_wall(code):
        walls = []
        for _ in range(IMPORT_PROBES):
            t0 = time.perf_counter()
            run_child(["-c", code])
            walls.append(time.perf_counter() - t0)
        return statistics.median(walls)
    return (median_wall("import tverlab") - median_wall("pass")) * 1e3


def environment() -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"commit": commit, "python": platform.python_version(),
            "nproc": os.cpu_count(), "loadavg_at_start": list(os.getloadavg())}


def measure(tl, wl, seconds: float, traced: bool, between):
    """Run passes until the next one, taken to last as long as the longest
    so far, would end after ``seconds``; the first pass always runs. A
    traced run alternates untraced and traced passes, starting untraced,
    and always makes one of each. ``between`` is called after each pass."""
    tracer = spans.Tracer() if traced else None
    null = spans.NullTracer()
    passes = {False: [], True: []}
    ops, counts = [], []
    started = time.perf_counter()
    while True:
        this_traced = traced and len(passes[False]) > len(passes[True])
        if this_traced:
            tally = [0, 0]
            restore = install_hull_query_span(tl, tracer, tally)
            try:
                with tracer.span("pass") as span:
                    pass_ops, pass_counts = wl.run_pass(tracer)
            finally:
                restore()
            pass_counts["hull_feasible"], pass_counts["hull_calls"] = tally
            counts.append(pass_counts)
            took = tracer.duration(span.index)
        else:
            t0 = time.perf_counter()
            pass_ops, _ = wl.run_pass(null)
            took = time.perf_counter() - t0
        passes[this_traced].append(took)
        ops.append((this_traced, pass_ops))
        between()
        longest = max(passes[False] + passes[True])
        if time.perf_counter() - started + longest > seconds and (passes[True] or not traced):
            break
    return passes, ops, tracer, counts


def fastest_pass(passes_ops) -> float:
    """The sum over the timed calls of a pass of each call's shortest time
    across passes.

    Every pass visits the same ops in the same order; an op's ``calls`` are
    its public calls, or the op itself. On a shared host, other load only
    ever adds time, so the shortest of many samples is the steadiest
    estimate. Summing per call lets each call take its quiet moment from a
    different pass."""
    calls = lambda op: op.get("calls", [op["seconds"]])
    return sum(min(calls(p[i])[j] for p in passes_ops)
               for i in range(len(passes_ops[0])) for j in range(len(calls(passes_ops[0][i]))))


def install_hull_query_span(tl, tracer, tally):
    """Wrap tverlab.geometry.hulls_intersect, which the search calls by its
    module-level name, so that each hull query becomes a span; ``tally``
    counts [feasible, all] queries. Returns the undo."""
    geometry = tl.geometry
    original = geometry.hulls_intersect

    def traced_hulls_intersect(faces, config):
        with tracer.span("geometry.hull_query"):
            res = original(faces, config)
        tally[0] += res is not None
        tally[1] += 1
        return res

    geometry.hulls_intersect = traced_hulls_intersect

    def restore():
        geometry.hulls_intersect = original
    return restore


def layer_metrics(passes, ops, tracer, counts) -> tuple[dict, dict]:
    """The printed per-layer figures of the traced passes, and for the
    result file each layer's self time per traced pass in seconds and
    whether the tracing overhead was resolved. Printed times are shares of
    the traced pass wall time: they cancel the host's speed, which drifts
    between runs, but each share also moves when any other layer of the
    same pass gets faster or slower."""
    traced_passes = [pass_ops for traced, pass_ops in ops if traced]
    untraced_passes = [pass_ops for traced, pass_ops in ops if not traced]
    wall_total = sum(passes[True])
    own = tracer.self_times()
    by_name, whole = {}, {}
    covered = 0.0
    for i, name in enumerate(tracer.names):
        by_name[name] = by_name.get(name, 0.0) + own[i]
        whole[name] = whole.get(name, 0.0) + tracer.duration(i)
        parent = tracer.parents[i]
        if spans.layer_of(name) in spans.LAYERS and (
                parent < 0 or spans.layer_of(tracer.names[parent]) not in spans.LAYERS):
            covered += tracer.duration(i)
    frac = lambda name: by_name.get(name, 0.0) / wall_total
    per_pass = lambda key: statistics.median(c.get(key, 0) for c in counts)

    child = [op for pass_ops in traced_passes for op in pass_ops if "work_s" in op]
    child_wall = sum(op["seconds"] for op in child)
    feasible = sum(c["hull_feasible"] for c in counts)
    queries = sum(c["hull_calls"] for c in counts)
    if queries != sum(c.get("geometry.hull_queries", 0) for c in counts):
        raise BenchmarkError("hull-query spans disagree with the reported hull_queries")
    printed = {
        "trace.wall_s": (statistics.median(passes[True]), "s"),
        "trace.overhead_frac": (fastest_pass(traced_passes) / fastest_pass(untraced_passes) - 1.0,
                                "frac"),
        "trace.coverage_frac": (covered / wall_total, "frac"),
        "pass.z2_frac": (whole.get("part.z2", 0.0) / wall_total, "frac"),
        "pass.z3_frac": (whole.get("part.z3", 0.0) / wall_total, "frac"),
        "complexes.build_frac": (frac("complexes.build"), "frac"),
        "complexes.cells": (per_pass("complexes.cells"), "count"),
        "homology.assemble_frac": (frac("homology.assemble"), "frac"),
        "homology.nnz": (per_pass("homology.nnz"), "count"),
        "homology.rank_frac.z2": (frac("homology.rank.z2"), "frac"),
        "homology.rank_frac.z3": (frac("homology.rank.z3"), "frac"),
        "geometry.search_self_frac": (frac("geometry.search"), "frac"),
        "geometry.hull_query_frac": (frac("geometry.hull_query"), "frac"),
        "geometry.verify_frac": (frac("geometry.verify"), "frac"),
        "geometry.hull_queries": (per_pass("geometry.hull_queries"), "count"),
        "geometry.nodes": (per_pass("geometry.nodes"), "count"),
        "geometry.hull_feasible_frac": (feasible / queries if queries else 0.0, "frac"),
        "cli.work_frac": (sum(op["work_s"] for op in child) / child_wall if child else 0.0, "frac"),
        "cli.import_ms": (import_ms(), "ms"),
    }
    # The overhead is resolved only when it exceeds the quartile spread of
    # the untraced passes; with a handful of passes it rarely does.
    q = statistics.quantiles(passes[False], n=4) if len(passes[False]) >= 2 else None
    resolved = q is not None and abs(printed["trace.overhead_frac"][0]) > (
        q[2] - q[0]) / statistics.median(passes[False])
    return printed, {
        "layer_self_s_per_traced_pass": {name: seconds / len(passes[True])
                                         for name, seconds in sorted(by_name.items())},
        "trace_overhead_resolved": resolved,
    }


def end_to_end(workload, passes, ops, setup_times) -> tuple[dict, dict]:
    """The printed end-to-end metrics, and the fuller per-workload figures
    that go only to the result file."""
    untraced = [pass_ops for traced, pass_ops in ops if not traced]
    if workload == "cli":
        rss_kib = max(op["rss_kib"] for pass_ops in untraced for op in pass_ops)
    else:
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    printed = {
        "wall_s": (fastest_pass(untraced), "s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (rss_kib / 1024.0, "MB"),
    }
    extra = {"median_pass_total_s": statistics.median(passes[False])}
    for i, op in enumerate(untraced[0]):
        key = op["part"] + "_s"
        extra[key] = extra.get(key, 0.0) + fastest_pass([[p[i]] for p in untraced])
    if workload in ("search", "cli"):
        extra["ops"] = spans.latency_summary([op["seconds"] for p in untraced for op in p])
    if workload == "cli":
        child = [op for p in untraced for op in p if "work_s" in op]
        extra["work_ms"] = statistics.median(op["work_s"] for op in child) * 1e3
        extra["overhead_ms"] = statistics.median(op["seconds"] - op["work_s"] for op in child) * 1e3
    extra["op_seconds"] = [[op.get("calls", op["seconds"]) for op in p] for p in untraced]
    return printed, extra


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=42.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    # Turn a termination request into an exit that runs the clean-up below.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    env = environment() if not args.setup_only else None
    wl = None
    try:
        tl, wl, setup_s = setup(args.workload, args.seed)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        assert_child_imports_from_src()
        numpy = sys.modules.get("numpy")
        env["numpy"] = getattr(numpy, "__version__", None)
        setup_times = [setup_s]

        def more_setup():
            if len(setup_times) < SETUP_REPEATS:
                setup_times.append(setup_in_child(args.workload, args.seed))

        traced = bool(args.trace)
        passes, ops, tracer, counts = measure(tl, wl, args.seconds, traced, more_setup)
        while len(setup_times) < SETUP_REPEATS:
            more_setup()

        attempted = failed = 0
        problems = []
        for _, pass_ops in ops:
            for op in pass_ops:
                attempted += 1
                found = [op["error"]] if "error" in op else wl.check(op)
                if found:
                    failed += 1
                    problems.extend(found)

        e2e, extra = end_to_end(args.workload, passes, ops, setup_times)
        printed, trace_details = e2e, {}
        if traced:
            printed, trace_details = layer_metrics(passes, ops, tracer, counts)
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        if wl is not None and hasattr(wl, "close"):
            wl.close()

    OUT.mkdir(parents=True, exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if traced:
        tracer.write_jsonl(stem.with_name(stem.name + "-spans.jsonl"))
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in printed.items()}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    with open(stem.with_suffix(".json"), "w", encoding="utf-8") as fh:
        json.dump({**result, "args": vars(args), "environment": env,
                   "failed_frac": failed / attempted, "problems": problems[:50],
                   "end_to_end": {k: v for k, (v, _) in e2e.items()},
                   "setup_times_s": setup_times, "passes_s": passes[False],
                   "traced_passes_s": passes[True], "per_part_s": extra,
                   **trace_details}, fh, indent=2)
    for line in problems[:20]:
        print(f"perfbench: FAILED {line}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
