#!/usr/bin/env python3
"""Seeded warehouse benchmark: build, run one workload, check, report.

    python3 perfbench/run.py --workload refresh|query|mixed --seed N \\
        --seconds S --trace 0|1

Run from the root of the repository. The first run configures and builds
the benchmark binary and the warehouse libraries it links (from src/) into
.bench_build/; later runs only rebuild what changed. The run prints its
stamp, every metric the workload measured (with units), the oracle verdict
and, when traced, the per-span table; its last line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

whose metrics are BENCHMARK.json's end_to_end metrics (--trace 0) or its
per_layer metrics (--trace 1). See perfbench/README.md.
"""

import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench-cmake")
RUN_DIR = os.path.join(BUILD_ROOT, "perfbench")
WORKLOADS = ("refresh", "query", "mixed")
# A run must end within 180 s; leave room for the build check and output.
RUN_TIMEOUT_S = 165

sys.path.insert(0, HERE)
import summarize_trace  # noqa: E402


class BenchError(Exception):
    pass


def run_logged(cmd, timeout):
    """Runs a build step with its output on stderr; raises on failure."""
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout)
    except (OSError, subprocess.TimeoutExpired) as error:
        raise BenchError(f"{cmd[0]} failed: {error}")
    if proc.returncode != 0:
        raise BenchError(f"`{' '.join(cmd)}` exited with {proc.returncode}")


def build():
    """Configures (once) and builds the benchmark; returns the binary."""
    os.makedirs(BUILD_ROOT, exist_ok=True)
    with open(os.path.join(BUILD_ROOT, "perfbench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            run_logged(["cmake", "-S", HERE, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"], timeout=300)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        run_logged(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                    "-j", jobs], timeout=1500)
    return os.path.join(BUILD_DIR, "perfbench")


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            if proc.returncode == 0:
                return proc.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as source:
                    digest.update(source.read())
    return "tree-sha256:" + digest.hexdigest()[:16]


def run_workload(binary, args, commit, trace_file):
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", os.path.join(RUN_DIR, "work"), "--commit", commit]
    if args.trace:
        cmd += ["--trace-file", trace_file]
    if args.plant_wrong_answer:
        cmd.append("--plant-wrong-answer")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"workload did not finish in {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise BenchError(f"perfbench exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("perfbench printed no result")
    return json.loads(lines[-1])


def pick(declared, measured):
    """BENCHMARK.json's metrics, in its order and units, from `measured`."""
    metrics = {}
    for entry in declared:
        if entry["name"] not in measured:
            raise BenchError(f"workload did not measure {entry['name']}")
        metrics[entry["name"]] = {"value": measured[entry["name"]],
                                  "unit": entry["unit"]}
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--plant-wrong-answer", action="store_true",
                        help="oracle self-test: corrupt the sources behind "
                             "the warehouse's back before the final checks")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
        spec = json.load(spec_file)
    binary = build()
    commit = source_id()
    os.makedirs(RUN_DIR, exist_ok=True)
    trace_file = os.path.join(RUN_DIR,
                              f"trace-{args.workload}-{args.seed}.tsv")
    result = run_workload(binary, args, commit, trace_file)

    stamp = result["stamp"]
    print("perfbench " + " ".join(f"{k}={v}" for k, v in stamp.items()))
    measured = {}
    for name, metric in result["metrics"].items():
        measured[name] = metric["value"]
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    attempted, failed = result["attempted"], result["failed"]
    failures = list(result["oracle_failures"])

    if args.trace:
        layers, table = summarize_trace.summarize(trace_file)
        summarize_trace.print_table(table, sys.stdout)
        # A traced run whose layer spans miss too much of an op cannot
        # split that op by layer: each miss is a failed check.
        for passed, message in summarize_trace.coverage_checks(layers, table):
            attempted += 1
            if not passed:
                failed += 1
                failures.append(f"coverage check: {message}")
        metrics = pick(spec["per_layer"], layers)
    else:
        metrics = pick(spec["end_to_end"], measured)

    correct = failed == 0 and not failures
    if correct:
        print(f"oracle: PASS ({attempted} operations and checks, none failed)")
    else:
        print(f"oracle: FAIL ({failed} of {attempted} operations and checks "
              "failed)")
        for failure in failures:
            print(f"  {failure}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, OSError, ValueError, KeyError) as error:
        sys.stderr.write(f"perfbench: {error}\n")
        sys.exit(1)
