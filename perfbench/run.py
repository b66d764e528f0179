#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload fit-eval --seed 1 --seconds 30 --trace 0

With --trace 0 the workload is measured untraced and every end-to-end
metric is reported. With --trace 1 the workload runs twice on the same
inputs, first untraced and then with every layer wrapped, and the
per-layer metrics of the traced pass are reported. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Human-readable detail (machine and input facts, medians with tail
percentiles and sample counts) goes on the lines before it, and the full
record is written to .perfbench_work/last-<workload>[-trace].json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOAD_NAMES = ("fit-eval", "serve-cold", "cli-cold")
# Set-up runs this many times into one directory. The first fills the score
# cache and the rest find it filled, as every run after a user's first does;
# setup_s is the median. Creating thousands of cache files costs several
# times more kernel time in some seconds than in others on a shared disk,
# so the cold first set-up is reported on its own line only.
SETUP_REPEATS = 5

# One BLAS thread for the benchmark and the CLI processes it starts. The
# fusion matrices are small: on a 2-CPU shared host two OpenBLAS threads
# made evaluate about a third slower and turned CPU steal into +-15 %
# run-to-run noise. Set before numpy is first imported.
BLAS_THREADS = {var: "1" for var in ("OPENBLAS_NUM_THREADS",
                                     "OMP_NUM_THREADS", "MKL_NUM_THREADS")}

# End-to-end metric -> unit, reported on every workload.
E2E_UNITS = {
    "setup_s": "s",
    "fit_rows_per_s": "rows/s",
    "predict_texts_per_s": "texts/s",
    "provider_calls_per_distinct_text": "calls/text",
    "eval_accuracy": "ratio",
    "peak_rss_mb": "MB",
}


def machine_facts() -> dict:
    import numpy

    facts = {"nproc": len(os.sched_getaffinity(0)),
             "python": platform.python_version(),
             "numpy": numpy.__version__, "blas_threads": 1}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            facts["cpu"] = next((line.split(":", 1)[1].strip() for line in fh
                                 if line.startswith("model name")), "unknown")
    except OSError:
        facts["cpu"] = "unknown"
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_dir.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            facts[f"L{level}"] = size
    return facts


def measure(workload, seconds: float, trace: bool, run_dir: Path):
    """Set up and run the timed pass(es).

    Returns the metrics, their units, the human-readable report lines and,
    for a traced run, the span documents (None otherwise).
    """
    from perfbench import stats, tracing

    setup_walls = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload.setup(run_dir / "setup")
        setup_walls.append(time.perf_counter() - start)

    if not trace:
        workload.begin_pass(run_dir / "pass")
        stats.run_for(seconds, workload.timed_op, min_ops=workload.min_ops)
        workload.finish()
        metrics = {"setup_s": statistics.median(setup_walls),
                   **workload.e2e(),
                   "peak_rss_mb": workload.peak_rss_mb()}
        lines = [f"setup_s: {stats.describe(setup_walls, 's')}, "
                 f"first (cold cache) {setup_walls[0]:.6g} s",
                 *workload.report()]
        return metrics, E2E_UNITS, lines, None

    workload.begin_pass(run_dir / "pass-untraced")
    untraced = stats.run_for(seconds / 2, workload.timed_op,
                             min_ops=workload.min_ops)
    n_ops = len(untraced)
    workload.begin_pass(run_dir / "pass-traced")
    tracer = tracing.Tracer()
    if workload.in_process:
        with tracing.installed(tracer) as absent:
            traced = stats.run_for(float("inf"), workload.timed_op,
                                   min_ops=n_ops, max_ops=n_ops)
        docs = [dict(tracer.to_doc(), absent=absent)]
    else:
        workload.traced = True
        traced = stats.run_for(float("inf"), workload.timed_op,
                               min_ops=n_ops, max_ops=n_ops)
        docs = workload.trace_docs
    workload.finish()

    totals = tracing.LayerTotals()
    counts: dict[str, float] = {}
    distinct = 0
    absent_layers: set[str] = set()
    for doc in docs:
        totals.add_timeline([tracing.Span(*s) for s in doc["spans"]])
        for key, value in doc["counts"].items():
            if key == "model_bytes":  # a size, not a count: keep the largest
                counts[key] = max(counts.get(key, 0.0), value)
            else:
                counts[key] = counts.get(key, 0.0) + value
        distinct += doc["distinct"]
        absent_layers.update(doc["absent"])
    traced_wall, untraced_wall = sum(traced), sum(untraced)
    metrics = tracing.layer_metrics(totals, counts, distinct, n_ops,
                                    traced_wall, untraced_wall)
    workload.check(totals.total_self_s <= traced_wall,
                   f"layer self times {totals.total_self_s:.6f}s exceed the "
                   f"traced wall time {traced_wall:.6f}s")
    lines = [f"traced ops: {n_ops}, untraced wall {untraced_wall:.6g} s, "
             f"traced wall {traced_wall:.6g} s, summed self time "
             f"{totals.total_self_s:.6g} s",
             f"absent layers: {sorted(absent_layers) or 'none'}"]
    return metrics, tracing.PER_LAYER_UNITS, lines, docs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "scorefusion" / "__init__.py").is_file():
        print(f"perfbench: no scorefusion sources at {SRC}", file=sys.stderr)
        return 2
    os.environ.update(BLAS_THREADS)
    # Import scorefusion from this checkout, and perfbench as a package
    # rather than its modules from the script directory.
    sys.path[:] = [str(SRC), str(ROOT)] + [
        p for p in sys.path if Path(p or ".").resolve() != HERE]
    from perfbench.workloads import WORKLOADS

    work_root = ROOT / ".perfbench_work"
    run_dir = work_root / f"{args.workload}-{os.getpid()}"
    workload = WORKLOADS[args.workload](args.seed)
    try:
        metrics, units, lines, docs = measure(workload, args.seconds,
                                              bool(args.trace), run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    facts = {"workload": args.workload, "seed": args.seed,
             "seconds": args.seconds, "trace": args.trace,
             **machine_facts(), **workload.facts()}
    result = {
        "correct": workload.failed == 0,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }
    suffix = "-trace" if args.trace else ""
    work_root.mkdir(exist_ok=True)
    (work_root / f"last-{args.workload}{suffix}.json").write_text(
        json.dumps({"facts": facts, "detail": lines,
                    "failures": workload.failures, **result}, indent=2),
        encoding="utf-8")
    if docs is not None:
        (work_root / f"spans-{args.workload}.json").write_text(
            json.dumps(docs), encoding="utf-8")

    print(f"facts: {json.dumps(facts)}")
    for line in lines:
        print(line)
    for failure in workload.failures:
        print(f"FAILED: {failure}")
    for name, metric in result["metrics"].items():
        print(f"{name}: {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
