#!/usr/bin/env python3
"""Builds bench_suite from source and runs one of its workloads.

    python3 bench/suite/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from anywhere; the build goes to $CARGO_TARGET_DIR (default
.bench_build), relative to the repository root. The bench_suite table
passes through, and the last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end ones, measured
over passes repeated for T seconds; with --trace 1 they are its per_layer
ones, from one untraced pass plus the traced pass. Exits nonzero, printing
no result, when the build fails or bench_suite produced no report.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
RUN_TIMEOUT_S = 160


def fail(message):
    sys.stderr.write(f"run.py: {message}\n")
    sys.exit(1)


def build(build_dir):
    """Builds bench_suite, configuring first when needed; returns its path.
    A configured tree re-runs CMake by itself when a CMakeLists.txt changed.
    """
    # Compiler temporaries stay inside the build directory too.
    tmp = build_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    configure = ["cmake", "-S", str(HERE), "-B", str(build_dir),
                 "-DCMAKE_BUILD_TYPE=Release"]
    make = ["cmake", "--build", str(build_dir), "--target", "bench_suite",
            "-j", str(min(4, os.cpu_count() or 1))]
    log_path = build_dir / "build.log"
    with open(log_path, "w") as log:
        def ok(cmd):
            return subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                  cwd=ROOT, env=env).returncode == 0

        configured = (build_dir / "CMakeCache.txt").exists()
        if not (configured and ok(make)) and not (ok(configure) and ok(make)):
            log.flush()
            sys.stderr.write(log_path.read_text()[-4000:])
            fail("building bench_suite failed")
    return build_dir / "bench_suite"


def run_suite(cmd):
    """Runs bench_suite in its own process group; returns its exit status
    once every process of the group has ended."""
    sys.stdout.flush()
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        status = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        status = None
    # bench_suite reaps its forked passes itself; this only matters when it
    # was cut off mid-pass.
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    for _ in range(500):
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            break
        time.sleep(0.01)
    if status is None:
        fail(f"bench_suite exceeded {RUN_TIMEOUT_S} s")
    return status


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be >= 0")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    exe = build(build_dir)

    runs = build_dir / "runs"
    runs.mkdir(exist_ok=True)
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    report_path = runs / f"report-{tag}.json"
    report_path.unlink(missing_ok=True)
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--json", str(report_path)]
    if args.trace:
        cmd += ["--traced", str(runs / f"spans-{tag}.json")]
    else:
        cmd += ["--seconds", str(args.seconds)]
    status = run_suite(cmd)
    if not report_path.exists():
        fail(f"bench_suite exited {status} without a report")

    workload = json.loads(report_path.read_text())["workloads"][0]
    source = workload.get("layers", {}) if args.trace else workload["metrics"]
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in declared:
        got = source.get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            fail(f"report lacks {m['name']} in {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    print(json.dumps({
        "correct": bool(workload["correct"]) and status == 0,
        "attempted": workload["attempted"],
        "failed": workload["failed"],
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
