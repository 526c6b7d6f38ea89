#!/usr/bin/env python3
"""Gate a fresh BENCH_*.json against a committed baseline.

Usage:
    check_bench_regression.py BASELINE.json FRESH.json [--threshold 0.25]
                              [--metric ops_per_sec|p50_us|p99_us ...]
                              [--row PREFIX ...]

Compares rows by name: the check fails if any baseline row is missing
from the fresh run, or if a fresh row's metric regressed more than
`threshold` (fraction) relative to the baseline's. Direction follows the
metric: ops_per_sec is higher-is-better (fail on drops), the latency
percentiles p50_us/p99_us are lower-is-better (fail on rises). Rows
present only in the fresh run are reported but never fail the check, so
adding a configuration does not require regenerating the baseline first.

`--metric` may repeat to gate several metrics of the same suite in one
invocation (e.g. `--metric ops_per_sec --metric p99_us` for a serving
benchmark where both throughput collapses and tail-latency blowups are
regressions); every metric uses the same threshold, and a single missing
row is reported once per metric. Omitting the flag gates ops_per_sec
only, exactly as before.

`--row` may repeat to gate only the baseline rows whose name starts with
one of the given prefixes (e.g. `--row initial_load/ --row checkpoint/`);
the other rows are still printed for the record but never fail the check.
Omitting it gates every baseline row.

Stdlib only — CI runs this straight from the checkout.
"""

import argparse
import json
import sys

# Metric name -> True when larger values are better.
METRICS = {
    "ops_per_sec": True,
    "p50_us": False,
    "p99_us": False,
}


def load_rows(path, metric):
    with open(path) as f:
        doc = json.load(f)
    rows = {}
    for row in doc.get("rows", []):
        rows[row["name"]] = float(row.get(metric, 0.0))
    if not rows:
        sys.exit(f"error: {path} contains no benchmark rows")
    return rows


def check_metric(args, metric):
    """Prints the comparison table for one metric; returns its failures."""
    higher_is_better = METRICS[metric]
    baseline = load_rows(args.baseline, metric)
    fresh = load_rows(args.fresh, metric)

    failures = []
    print(
        f"metric: {metric} "
        f"({'higher' if higher_is_better else 'lower'} is better)"
    )
    print(f"{'configuration':<44} {'baseline':>12} {'fresh':>12} {'ratio':>7}")
    for name, base_value in sorted(baseline.items()):
        if args.row and not name.startswith(tuple(args.row)):
            if name in fresh:
                print(f"{name:<44} {base_value:>12.1f} "
                      f"{fresh[name]:>12.1f}  (not gated)")
            continue
        if name not in fresh:
            failures.append(f"row missing from fresh run: {name}")
            print(f"{name:<44} {base_value:>12.1f} {'MISSING':>12}")
            continue
        fresh_value = fresh[name]
        ratio = fresh_value / base_value if base_value > 0 else float("inf")
        if higher_is_better:
            regressed = fresh_value < base_value * (1.0 - args.threshold)
            delta = f"fell {1.0 - ratio:.1%}"
        else:
            regressed = fresh_value > base_value * (1.0 + args.threshold)
            delta = f"rose {ratio - 1.0:.1%}"
        flag = ""
        if regressed:
            failures.append(
                f"{name}: {metric} {delta} "
                f"({base_value:.1f} -> {fresh_value:.1f}), "
                f"threshold is {args.threshold:.0%}"
            )
            flag = "  REGRESSED"
        print(
            f"{name:<44} {base_value:>12.1f} {fresh_value:>12.1f} "
            f"{ratio:>6.2f}x{flag}"
        )
    for name in sorted(set(fresh) - set(baseline)):
        print(f"{name:<44} {'(new)':>12} {fresh[name]:>12.1f}")
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("fresh")
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.25,
        help="allowed fractional regression before failing (default 0.25)",
    )
    parser.add_argument(
        "--metric",
        action="append",
        choices=sorted(METRICS),
        default=None,
        help="row field to compare; repeatable to gate several metrics at "
        "once (default ops_per_sec; the *_us latency percentiles gate in "
        "the lower-is-better direction)",
    )
    parser.add_argument(
        "--row",
        action="append",
        default=None,
        help="gate only baseline rows whose name starts with this prefix; "
        "repeatable (default: every row)",
    )
    args = parser.parse_args()
    metrics = args.metric or ["ops_per_sec"]

    failures = []
    for i, metric in enumerate(metrics):
        if i > 0:
            print()
        failures.extend(check_metric(args, metric))

    if failures:
        print(f"\n{len(failures)} regression(s):", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        sys.exit(1)
    print(f"\nok: no row regressed more than {args.threshold:.0%}")


if __name__ == "__main__":
    main()
