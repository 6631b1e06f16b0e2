#!/usr/bin/env python3
"""Builds and runs the Contory repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is query_churn, item_delivery, city_mobile, city_static or all (the
four in turn, each in its own single-threaded process, with metric names
prefixed by the workload). The first run configures and builds a Release
tree of ../src plus the perfbench binary under .bench_build/perfbench
(later runs only re-check it); build output goes to stderr. The report
goes to stdout: a machine record, a table per workload, and as the last
line one JSON object with the keys correct, attempted, failed and
metrics. A traced
run also writes its spans as Chrome-trace JSON to
.bench_build/perfbench/traces/trace_<workload>.json. See METRICS.md for
what each workload and metric measures.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("query_churn", "item_delivery", "city_mobile", "city_static",
             "all")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def run_checked(cmd):
    """Runs a build step with its output on stderr; exits on failure."""
    result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        fail("build step failed: " + " ".join(cmd))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no Contory sources under src/; run from a full checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja") is not None:
            cmd += ["-G", "Ninja"]
        run_checked(cmd)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_checked(["cmake", "--build", BUILD, "--target", "perfbench",
                 "--parallel", jobs])
    return os.path.join(BUILD, "perfbench")


def source_commit():
    """The git commit when the checkout is a repository, else a hash of
    the sources the benchmark compiles."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30)
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha1()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sources-sha1:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    binary = build()
    traces = os.path.join(BUILD, "traces")
    os.makedirs(traces, exist_ok=True)
    commit = source_commit()
    names = WORKLOADS[:-1] if args.workload == "all" else (args.workload,)
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for name in names:
        cmd = [binary, "--workload", name, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace,
               "--commit", commit, "--trace-dir", traces]
        code, lines = run_workload(cmd)
        last = lines[-1] if lines else ""
        # The report, less the result line, which is merged below.
        sys.stdout.write("".join(lines[:-1] if last.startswith("{") else lines))
        sys.stdout.flush()
        if code == 2 or not last.startswith("{"):
            return code or 2  # refused to measure or crashed: no result
        result = json.loads(last)
        worst = max(worst, code)
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        prefix = name + "." if len(names) > 1 else ""
        for metric, value in result["metrics"].items():
            merged["metrics"][prefix + metric] = value
    print(json.dumps(merged))
    return worst


def run_workload(cmd):
    """Runs one workload in its own process, so its peak RSS is its own;
    returns the exit code and the report's lines."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        lines = proc.stdout.readlines()
        return proc.wait(), lines
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
