#!/usr/bin/env python3
"""Steadiness check: run one workload N times and compare spread to bounds.

    python3 perfbench/steady.py --workload query [--runs 10]

Runs perfbench/run.py (untraced) once per seed 1 .. N, each for
BENCHMARK.json's run_seconds, on the current checkout. For every end-to-end
metric in BENCHMARK.json it prints the median, the first and third quartiles
(statistics.quantiles with n=4) and the spread, (q3 - q1) / median, next to
the metric's bound. A spread below a third of the bound is steady; setup_s
is exempt from the spread rule but still listed. Exits 1 when a run fails
or is not correct, or when a spread (setup_s aside) reaches its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
        spec = json.load(spec_file)
    seconds = spec["run_seconds"]

    values = {entry["name"]: [] for entry in spec["end_to_end"]}
    failed = False
    for seed in range(1, args.runs + 1):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: run failed (exit {proc.returncode})")
            failed = True
            continue
        result = json.loads(lines[-1])
        failed |= not result["correct"]
        row = []
        for name, metric in result["metrics"].items():
            values[name].append(metric["value"])
            row.append(f"{name}={metric['value']:.5g}")
        print(f"seed {seed}: correct={result['correct']} " + " ".join(row),
              flush=True)

    print(f"\n{'metric':16} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}  verdict")
    for entry in spec["end_to_end"]:
        series = values[entry["name"]]
        if len(series) < 2:
            continue
        q1, median, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / median if median else float("inf")
        bound = entry["bound"]
        if spread < bound / 3:
            verdict = "steady"
        elif spread < bound:
            verdict = "within bound, above a third of it"
        else:
            verdict = "UNSTEADY"
        if entry["name"] == "setup_s":
            verdict += " (spread exempt)"
        elif spread >= bound:
            failed = True
        print(f"{entry['name']:16} {median:12.5g} {q1:12.5g} {q3:12.5g} "
              f"{spread:8.3f} {bound:6.2f}  {verdict}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
