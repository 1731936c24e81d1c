#!/usr/bin/env python3
"""Build and run the end-to-end benchmark; print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree. The benchmark builds the library and
its runner from source into .bench_build/ (CMake), runs one workload, checks
every output, and prints one JSON object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
with --trace 1 the per-layer ones. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.dont_write_bytecode = True  # leave no __pycache__ in the source tree
sys.path.insert(0, str(HERE))
import analyze  # noqa: E402

WORKLOADS = ("boiler-dump", "boiler-series-delta")
RUN_TIMEOUT_S = 165
# Many short processes, each on its own data set: the cost of a restart
# read moves by +-15% with the data layout a seed gives, so a run pools the
# operations of PROCESSES data sets rather than timing one.
PROCESSES = 8
# glibc's dynamic mmap threshold lets some processes serve the large
# per-operation buffers from fresh mmaps, which page-fault on every
# operation: reads in such a process ran 1.7-2.5x slower for the same
# seed. A fixed threshold (the 64-bit maximum) and no heap trimming keep
# every process in the buffer-reusing steady state.
RUNNER_ENV = {"MALLOC_MMAP_THRESHOLD_": str(32 << 20),
              "MALLOC_TRIM_THRESHOLD_": str(1 << 30)}


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def build(root, build_dir):
    """Configure (once) and build the runner; returns its path."""
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", str(build_dir), "--target", "perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr, stderr=sys.stderr)
    return build_dir / "perfbench"


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    root = Path.cwd()
    if not (root / "src" / "CMakeLists.txt").exists():
        log(f"no library sources under {root}/src; run from the source tree root")
        return 2
    build_dir = root / ".bench_build" / "perfbench"
    binary = build(root, build_dir)

    # The run is split over PROCESSES runner processes, each with its own
    # seed, persistent runtime and set-up; their records are pooled, and
    # together they take at least MIN_SAMPLES samples of each op kind.
    work = root / ".bench_build" / f"work-{args.workload}-{os.getpid()}"
    records = []
    start = time.monotonic()
    try:
        for proc in range(PROCESSES):
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            records_path = work / "records.jsonl"
            subprocess.run([str(binary), "--workload", args.workload,
                            "--seed", str(analyze.process_seed(args.seed, proc, PROCESSES)),
                            "--seconds", str(args.seconds / PROCESSES),
                            "--min-samples", str(-(-analyze.MIN_SAMPLES // PROCESSES)),
                            "--trace", str(args.trace), "--workdir", str(work / "data"),
                            "--records", str(records_path)],
                           check=True, timeout=RUN_TIMEOUT_S / PROCESSES,
                           stdout=sys.stderr, env={**os.environ, **RUNNER_ENV})
            records += analyze.tag_process(analyze.load(records_path), proc)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    log(f"runner ran {time.monotonic() - start:.1f} s")

    if analyze.untiled_negative(records):
        log("warning: phase rows exceed the wall time of some operations")
    info = analyze.run_info(records)
    attempted, failed = analyze.tally(records)
    valid = analyze.budget_ok(info)
    if args.trace:
        metrics = analyze.per_layer(records)
        if not analyze.counts_repeat(records):
            log("warning: per-layer counts differ between traced cycles")
    else:
        metrics = analyze.end_to_end(records)

    # Human-readable report: run configuration, then each metric with its
    # sample count.
    config = {k: v for k, v in info.items() if k not in ("type", "proc")}
    config.update(seed=args.seed, seconds=args.seconds, processes=PROCESSES,
                  process_seeds=[analyze.process_seed(args.seed, p, PROCESSES)
                                 for p in range(PROCESSES)])
    print("run " + json.dumps(config))
    for name, (value, unit, *n) in metrics.items():
        suffix = f"  (n={n[0]})" if n else ""
        print(f"{name:40s} {value:14.6g} {unit}{suffix}")
    result = {
        "correct": failed == 0 and valid,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, *_) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
