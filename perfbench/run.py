#!/usr/bin/env python3
"""polarkit benchmark: SC decoding, genie construction and exact kernel analysis.

Run from the root of a polarkit checkout (the library is imported from
``src/``; nothing needs building):

    python3 perfbench/run.py --workload fer_arikan --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` runs a warm-up pass, then one fixed pass untraced and two
traced, wrapping polarkit's module attributes (see layers.py), and reports
per-layer metrics, tracing overhead and the share of wall time the spans
account for; the spans are written to perfbench/out/.  Every run checks
its outputs against exact references (see workloads.py).  Report lines go
to stdout first; the last line is one JSON object with keys correct,
attempted, failed and metrics.  ``--workload all`` runs every workload in
its own fresh process.

BLAS and OpenMP pools are pinned to one thread.  fer_experiment keeps its
default ``workers=1``: the parameter only splits random streams today.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCH = json.load(_fh)
WORKLOADS = {w["name"]: w["why"] for w in BENCH["workloads"]}
SETUP_REPEATS = 5  # set-up samples at each end of an untraced run
TRACED_PASSES = 2


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=BENCH["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run_all(args):
    """Each workload in a fresh process; their report lines, then one JSON map."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            print(f"# {name}: exit code {proc.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def environment():
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def setup_samples(wl, seed, n):
    """``n`` samples of (polarkit import, set-up from the seed), in seconds.

    numpy is the environment, not the program, and stays loaded; polarkit is
    imported afresh for each sample (its modules dropped from sys.modules,
    garbage collected first), and the modules in use are put back after.
    """
    kept = {name: mod for name, mod in sys.modules.items() if name.partition(".")[0] == "polarkit"}
    samples = []
    for _ in range(n):
        for name in kept:
            sys.modules.pop(name, None)
        gc.collect()
        start = time.perf_counter()
        importlib.import_module("polarkit")
        imported = time.perf_counter()
        wl.setup(seed)
        samples.append((imported - start, time.perf_counter() - imported))
    sys.modules.update(kept)
    return samples


def run_untraced(wl, args, log):
    """Time-filled measurement; returns (named metrics, contract metrics).

    Set-up is sampled before and after the measurement, so that setup_s
    sees the machine at both ends of the run, not at one moment.
    """
    samples = setup_samples(wl, args.seed, SETUP_REPEATS)
    inp = wl.setup(args.seed)
    out = wl.measure(inp, args.seed, args.seconds, log)
    wl.check(inp, args.seed, out, log)
    named, work, latency = wl.report(out, log)
    samples += setup_samples(wl, args.seed, SETUP_REPEATS)
    setup_s = statistics.median(i + s for i, s in samples)
    named = {"setup_s": {"value": setup_s, "unit": "s", "n": len(samples)}, **named,
             "peak_rss_mb": {"value": out["rss_mb"], "unit": "MB", "n": 1},
             "import_s": {"value": statistics.median(i for i, _ in samples), "unit": "s", "n": len(samples)}}
    metrics = {
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": out["rss_mb"], "unit": "MB"},
        "work_per_s": {"value": work["value"], "unit": "1/s"},
        "latency_ms_p50": {"value": latency["value"], "unit": "ms"},
    }
    return named, metrics


def run_traced(wl, args):
    """One untraced and TRACED_PASSES traced fixed passes, set-up included.

    An unrecorded pass goes first, so that first-call costs (page faults,
    lazy initialisation) land in none of the compared passes.
    """
    import checks
    import layers
    from spans import Tracer
    from workloads import OpLog

    tracer = Tracer()
    layers.install(tracer)
    wl.measure(wl.setup(args.seed), args.seed, 0, OpLog())
    walls, logs = [], []
    try:
        for run_id in range(TRACED_PASSES + 1):
            log = OpLog()
            tracer.run_id = run_id or None
            start = time.perf_counter()
            inp = wl.setup(args.seed)
            out = wl.measure(inp, args.seed, 0, log)
            walls.append(time.perf_counter() - start)
            tracer.run_id = None
            wl.check(inp, args.seed, out, log)
            logs.append(log)
    finally:
        tracer.unwrap_all()
    problems = [f"pass {run_id} {name}: {e}"
                for run_id, name, polys in tracer.returns
                for e in checks.pattern_identity_errors(polys)]
    per_pass, work = [], []
    for run_id in range(1, TRACED_PASSES + 1):
        summary, root_s = tracer.summary(run_id)
        values = layers.layer_values([m["name"] for m in BENCH["per_layer"]], summary, tracer.counts[run_id])
        values["trace.attributed_frac"] = root_s / walls[run_id]
        per_pass.append(values)
        work.append(({n: row["calls"] for n, row in summary.items()}, dict(tracer.counts[run_id])))
    if any(w != work[0] for w in work):
        problems.append(f"work counts differ between traced passes: {work}")
    metrics = {}
    for m in BENCH["per_layer"]:
        metric, unit = m["name"], m["unit"]
        if metric == "trace.untraced_pass_s":
            value = walls[0]
        elif metric == "trace.overhead_s":
            value = statistics.median(walls[1:]) - walls[0]
        elif unit in ("s", "frac"):
            value = statistics.median(v[metric] for v in per_pass)
        else:
            value = per_pass[0][metric]
        metrics[metric] = {"value": value, "unit": unit}
        print(f"# moves {metric}: {layers.MOVES[metric]}")
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    path = os.path.join(HERE, "out", f"trace_{wl.name}_seed{args.seed}.json.gz")
    tracer.dump(path, {"workload": wl.name, "seed": args.seed, "pass_walls_s": walls,
                       "environment": environment()})
    return metrics, logs, problems, tracer.summary(1)[0], path


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "polarkit")):
        print(f"error: no polarkit sources under {SRC}; run from a polarkit checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    # One bytecode cache inside the benchmark's own output directory, used
    # in place of every __pycache__ (numpy's too), so that nothing is written
    # outside the checkout.  A throwaway interpreter does the imports first
    # and fills it, so the timed imports below always read bytecode, whatever
    # the checkout holds or PYTHONDONTWRITEBYTECODE says, and no run's peak
    # RSS carries a compile.
    prefix = os.path.join(HERE, "out", "pycache")
    warm = f"import sys; sys.dont_write_bytecode = False; sys.path[:0] = {[SRC, HERE]!r}; import workloads"
    subprocess.run([sys.executable, "-X", f"pycache_prefix={prefix}", "-c", warm], check=True, timeout=120)
    sys.pycache_prefix = prefix
    sys.path[:0] = [SRC, HERE]

    import workloads

    wl = workloads.WORKLOADS[args.workload]
    print(f"# env {json.dumps(environment(), sort_keys=True)}")
    print(f"# workload {wl.name}: {WORKLOADS[wl.name]}")
    print(f"# seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    if args.trace == 0:
        log = workloads.OpLog()
        named, metrics = run_untraced(wl, args, log)
        attempted, failed, problems = log.attempted, log.failed, log.problems
    else:
        metrics, logs, problems, summary, path = run_traced(wl, args)
        for name, row in sorted(summary.items()):
            print(f"# span {name:40s} calls={row['calls']:<7d} s={row['s']:.6f} self_s={row['self_s']:.6f}")
        named = {m: {**metrics[m], "n": TRACED_PASSES} for m in metrics}
        attempted = sum(lg.attempted for lg in logs)
        failed = sum(lg.failed for lg in logs)
        problems = [p for lg in logs for p in lg.problems] + problems
        print(f"# spans written to {os.path.relpath(path, ROOT)}")
    named["ops_failed_frac"] = {"value": failed / attempted, "unit": "frac", "n": attempted}
    for metric, m in named.items():
        print(f"{metric:44s} {m['value']:>16.6g} {m['unit']:10s} n={m['n']}")
    for p in problems:
        print(f"# CHECK FAILED: {p}")
    correct = failed == 0 and not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
