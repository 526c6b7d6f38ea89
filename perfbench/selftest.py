#!/usr/bin/env python3
"""Oracle self-test: a planted wrong answer must fail the run.

    python3 perfbench/selftest.py

For every workload, one clean 1-second run must come back correct with no
failed operation, and one run with --plant-wrong-answer (a row slipped into
the sources behind the warehouse's back before the final checks) must come
back not correct, with the oracle's misses counted as failed. Exits 0 when
both hold for every workload.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("refresh", "query", "mixed")
SECONDS = 1


def run(workload, plant):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "1", "--seconds", str(SECONDS), "--trace", "0"]
    if plant:
        cmd.append("--plant-wrong-answer")
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, proc.stdout
    return json.loads(lines[-1]), proc.stdout


def main():
    ok = True
    for workload in WORKLOADS:
        clean, _ = run(workload, plant=False)
        planted, report = run(workload, plant=True)
        clean_ok = clean is not None and clean["correct"] and \
            clean["failed"] == 0
        rejected = planted is not None and not planted["correct"] and \
            planted["failed"] > 0
        misses = [line.strip() for line in report.splitlines()
                  if line.startswith("  ") and "=" not in line]
        print(f"{workload}: clean run {'passes' if clean_ok else 'FAILS'}; "
              f"planted wrong answer {'rejected' if rejected else 'ACCEPTED'}"
              f" ({len(misses)} oracle misses)")
        for miss in misses:
            print(f"    {miss}")
        ok &= clean_ok and rejected
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
