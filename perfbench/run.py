#!/usr/bin/env python3
"""Benchmark of susyxyz: seeded workloads of CLI-equivalent ops in a closed loop.

Run from the repository root:

    python3 perfbench/run.py --workload sector-large --seed 1 --seconds 30 --trace 0

One client runs the workload's op list (a pass, see workloads.py) again and
again, each op in a child forked after ``import susyxyz.cli`` so that it
starts cold. It runs passes while one more fits within ``--seconds``.
Every op's output is checked (checks.py); an op fails on a nonzero exit, an
exception or a failed check.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the
metrics are the end-to-end ones. With ``--trace 1`` traced passes alternate
with untraced ones and the metrics are the per-layer ones of tracing.py, plus
the tracing overhead. The line before it reports the machine, the library
versions, the thread settings, the hypervisor's steal share and every op
latency and each op's median latency over the passes; op_p50_s and op_p90_s
are quantiles of those medians. Exits with 1 and no result when the program cannot
be imported from ``src/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import execute
import tracing
from workloads import WORKLOADS, ops_for

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# (name, unit), computed by end_to_end_metrics
END_TO_END = [
    ("wall_s", "s"),
    ("op_p50_s", "s"),
    ("op_p90_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
    ("pass_ratio", "ratio"),
]
SETUP_REPEATS = 5
TIME_LIMIT_S = 170.0  # every op is killed by then, so a run ends within 180 s
THREAD_VARIABLES = ("SUSY_XYZ_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS")


def import_program():
    """Import susyxyz.cli from this checkout's src/, and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import susyxyz.cli
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import susyxyz from {SRC}: {exc}")
    if SRC not in Path(susyxyz.cli.__file__).resolve().parents:
        raise SystemExit(f"perfbench: susyxyz was imported from {susyxyz.cli.__file__}, not {SRC}")
    return susyxyz.cli


def measure_setup():
    """Median wall time of a fresh interpreter running ``import susyxyz.cli``."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # an installed package has its bytecode
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, "-c", "import susyxyz.cli"]
    subprocess.run(cmd, env=env, check=True, timeout=60)  # writes the bytecode caches
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(cmd, env=env, check=True, timeout=60)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def environment(cli, thread_settings):
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "mem_total_mb": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**20),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_settings": thread_settings,
        "pool_threads": cli.thread_cap(),
    }


def cpu_ticks():
    """(steal, total) CPU ticks of the machine from /proc/stat, or None."""
    try:
        with open("/proc/stat") as fh:
            ticks = [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return ticks[7], sum(ticks[:8])


def quantile(values, q):
    """Linearly interpolated quantile of a nonempty list."""
    values = sorted(values)
    pos = q * (len(values) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def run_pass(ops, traced, deadline):
    """Run every op once, in order; check outputs after the last op."""
    results = []
    start = time.perf_counter()
    for op in ops:
        results.append(execute.run_op(op, traced, deadline - time.perf_counter()))
        if results[-1].get("killed"):  # the run's time limit is reached
            break
    wall = time.perf_counter() - start
    reasons = [(op["label"], checks.failure(op, r)) for op, r in zip(ops, results)]
    return {
        "traced": traced,
        "wall_s": wall,
        "latencies": [r["latency_s"] for r in results],
        "cpu_s": sum(r["cpu_s"] for r in results),
        "peak_rss_mb": max(r["maxrss_mb"] for r in results),
        "failures": [(label, why) for label, why in reasons if why],
        "attempted": len(results),
        "complete": len(results) == len(ops),
        "traces": [r["trace"] for r in results if "trace" in r],
    }


def run_passes(ops, seconds, trace, deadline):
    """Passes while one more, at the mean pass time so far, ends within
    ``seconds``; with ``trace``, untraced and traced passes alternate and at
    least one of each runs."""
    passes = []
    begin = time.perf_counter()
    while True:
        passes.append(run_pass(ops, trace and len(passes) % 2 == 1, deadline))
        elapsed = time.perf_counter() - begin
        enough = len(passes) >= (2 if trace else 1)
        if not passes[-1]["complete"] or (enough and elapsed * (1 + 1 / len(passes)) > seconds):
            return passes


def op_medians(passes):
    """Each op's median latency over the complete passes (all passes if none is)."""
    complete = [p for p in passes if p["complete"]] or passes
    return [statistics.median(p["latencies"][i] for p in complete if i < len(p["latencies"]))
            for i in range(max(len(p["latencies"]) for p in complete))]


def end_to_end_metrics(passes, setup_s):
    untraced = [p for p in passes if not p["traced"]]
    latencies = op_medians(untraced)
    attempted = sum(p["attempted"] for p in untraced)
    failed = sum(len(p["failures"]) for p in untraced)
    values = {
        "wall_s": statistics.median(p["wall_s"] for p in untraced),
        "op_p50_s": quantile(latencies, 0.5),
        "op_p90_s": quantile(latencies, 0.9),
        "cpu_s": statistics.median(p["cpu_s"] for p in untraced),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in untraced),
        "setup_s": setup_s,
        "pass_ratio": (attempted - failed) / attempted,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def per_layer_metrics(passes):
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    if not traced:  # the first, untraced pass hit the time limit
        return {name: {"value": 0, "unit": unit} for name, unit, _ in tracing.PER_LAYER}
    per_pass = [tracing.layer_metrics(p["traces"]) for p in traced]
    values = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    values["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                                  - statistics.median(p["wall_s"] for p in untraced))
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in tracing.PER_LAYER}


def main(argv=None):
    started = time.perf_counter()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    # the default worker pool is what a user gets, so the cap stays unset
    thread_settings = {name: os.environ.get(name) for name in THREAD_VARIABLES}
    os.environ.pop("SUSY_XYZ_THREADS", None)
    cli = import_program()
    ops = ops_for(args.workload, args.seed)
    setup_s = None if args.trace else measure_setup()

    ticks_before = cpu_ticks()
    passes = run_passes(ops, args.seconds, bool(args.trace), started + TIME_LIMIT_S)
    ticks_after = cpu_ticks()
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(len(p["failures"]) for p in passes)
    counted = [p for p in passes if p["traced"] == bool(args.trace)]
    for p in passes:
        for label, why in p["failures"]:
            print(f"FAILED {label}: {why}", file=sys.stderr)

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "ops_per_pass": len(ops),
        "passes": len(counted),
        "op_samples": sum(len(p["latencies"]) for p in counted),
        "op_latencies_s": [x for p in counted for x in p["latencies"]],
        "op_median_latencies_s": op_medians(counted),
        "environment": environment(cli, thread_settings),
        # share of the machine's CPU time a hypervisor took while the passes ran
        "steal_share": (ticks_after[0] - ticks_before[0]) / (ticks_after[1] - ticks_before[1])
        if ticks_before and ticks_after and ticks_after[1] > ticks_before[1] else None,
    }
    if args.trace:
        metrics = per_layer_metrics(passes)
        shares = tracing.self_time_shares([t for p in counted for t in p["traces"]])
        info["self_time_share"] = dict(sorted(shares.items(), key=lambda kv: -kv[1])[:12])
    else:
        metrics = end_to_end_metrics(passes, setup_s)
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
