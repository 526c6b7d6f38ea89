#!/usr/bin/env python3
"""Trace summarizer for the perfbench span dump.

Reads the tab-separated dump a traced run writes (one `S` line per span:
id, parent, request, name, start_ns, end_ns, counts; one `C` line per
run-level counter) and derives every per-layer metric. A span's self time is
its duration minus the part of it that its child spans cover.

    python3 perfbench/summarize_trace.py <dump.tsv>

prints a per-span table (count, total, self time, p50, p99) and the
per-layer metrics with their units, and checks that the layer spans cover
at least 90% of each blocking operation (a refresh, a query).
"""

import json
import math
import os
import sys
from collections import defaultdict

QUERY_CLASSES = ["broad", "point", "anti", "join"]
COVERAGE_FLOOR = 0.9
BENCHMARK_JSON = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "BENCHMARK.json")


class Span:
    __slots__ = ("id", "parent", "request", "name", "start", "end", "counts",
                 "children")

    def __init__(self, fields):
        self.id = int(fields[1])
        self.parent = int(fields[2])
        self.request = int(fields[3])
        self.name = fields[4]
        self.start = int(fields[5])
        self.end = int(fields[6])
        self.counts = {}
        if len(fields) > 7 and fields[7]:
            for item in fields[7].split(";"):
                key, _, value = item.partition("=")
                self.counts[key] = float(value)
        self.children = []

    @property
    def duration(self):
        return self.end - self.start

    def covered(self):
        """Nanoseconds of this span covered by the union of its children."""
        total = 0
        cursor = self.start
        for child in sorted(self.children, key=lambda c: c.start):
            lo, hi = max(child.start, cursor), min(child.end, self.end)
            if hi > lo:
                total += hi - lo
                cursor = hi
        return total

    def self_time(self):
        return self.duration - self.covered()


def load(path):
    spans, counters = [], {}
    with open(path) as dump:
        for line in dump:
            fields = line.rstrip("\n").split("\t")
            if fields[0] == "S":
                spans.append(Span(fields))
            elif fields[0] == "C":
                counters[fields[1]] = float(fields[2])
    by_id = {span.id: span for span in spans}
    for span in spans:
        parent = by_id.get(span.parent)
        if parent is not None:
            parent.children.append(span)
    return spans, by_id, counters


def quantile(values, q):
    """Nearest-rank quantile, as the benchmark binary computes it."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(max(math.ceil(q * len(ordered)), 1), len(ordered))
    return ordered[rank - 1]


def ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def summarize(path):
    spans, by_id, counters = load(path)
    named = defaultdict(list)
    for span in spans:
        named[span.name].append(span)

    def durations(name, scale, keep=lambda span: True):
        return [s.duration / scale for s in named[name] if keep(s)]

    def median_ms(name):
        return quantile(durations(name, 1e6), 0.5)

    def total(name, key, keep=lambda span: True):
        return sum(s.counts.get(key, 0.0) for s in named[name] if keep(s))

    m = {}
    m["core.specify_ms"] = median_ms("core.specify")
    m["maintenance.plan_ms"] = median_ms("maintenance.plan")
    m["warehouse.load_ms"] = median_ms("warehouse.load")
    m["aggregate.add_view_ms"] = median_ms("aggregate.add_view")
    m["storage.bootstrap_ms"] = median_ms("storage.bootstrap")
    m["core.stored_per_source_tuple"] = counters.get(
        "core.stored_per_source_tuple", 0.0)

    integrate_us = durations("warehouse.integrate", 1e3)
    m["warehouse.integrate_p50_us"] = quantile(integrate_us, 0.5)
    m["warehouse.integrate_p99_us"] = quantile(integrate_us, 0.99)
    counted = [s for s in named["warehouse.integrate"]
               if "delta_tuples" in s.counts]
    m["warehouse.probes_per_delta_tuple"] = ratio(
        sum(s.counts["probes"] for s in counted),
        sum(s.counts["delta_tuples"] for s in counted))
    m["exec.workers"] = counters.get("exec.workers", 0.0)
    m["exec.kernels_per_refresh"] = ratio(
        sum(s.counts["kernels"] for s in counted), len(counted))

    evals = named["algebra.eval"] + named["warehouse.answer_query"]
    m["exec.kernels_per_query"] = ratio(
        sum(s.counts.get("kernels", 0.0) for s in evals), len(evals))
    cow = counters.get("warehouse.cow_commits", 0.0)
    m["warehouse.cow_commit_frac"] = ratio(
        cow, cow + counters.get("warehouse.inplace_commits", 0.0))
    m["warehouse.pin_p99_us"] = quantile(durations("warehouse.pin", 1e3), 0.99)
    m["warehouse.retired_versions_max"] = counters.get(
        "warehouse.retired_versions_max", 0.0)

    def class_of(span):
        parent = by_id.get(span.parent)
        if parent is None or "class" not in parent.counts:
            return None
        return QUERY_CLASSES[int(parent.counts["class"])]

    for name, metric in (("core.translate", "core.translate_p50_us"),
                         ("algebra.eval", "algebra.eval_p50_us")):
        for klass in QUERY_CLASSES:
            m[f"{metric}.{klass}"] = quantile(
                durations(name, 1e3, lambda s: class_of(s) == klass), 0.5)
    m["algebra.probes_per_query"] = ratio(
        sum(s.counts.get("probes", 0.0) for s in evals), len(evals))
    m["algebra.pushdown_frac"] = ratio(total("algebra.eval", "pushdowns"),
                                       total("algebra.eval", "operators"))
    hits = total("warehouse.answer_query", "cache_hits")
    misses = total("warehouse.answer_query", "cache_misses")
    m["algebra.cache_hit_ratio"] = ratio(hits, hits + misses)
    m["algebra.cache_evictions"] = total("warehouse.answer_query",
                                         "cache_evictions")

    # Durable refreshes: the `refresh` ops whose commit went through Append.
    appends = named["storage.append"]
    append_us = [s.duration / 1e3 for s in appends]
    m["storage.append_p50_us"] = quantile(append_us, 0.5)
    m["storage.append_p99_us"] = quantile(append_us, 0.99)
    durable_ops = {s.parent for s in appends}
    append_ids = {s.id for s in appends}
    commit_fsyncs = [s for s in named["storage.fsync"]
                     if s.parent in append_ids]
    fsync_us = [s.duration / 1e3 for s in commit_fsyncs]
    m["storage.fsync_p50_us"] = quantile(fsync_us, 0.5)
    m["storage.fsync_p99_us"] = quantile(fsync_us, 0.99)
    m["storage.fsyncs_per_refresh"] = ratio(len(commit_fsyncs),
                                            len(durable_ops))
    m["storage.wal_bytes_per_refresh"] = ratio(total("storage.append",
                                                     "wal_bytes"),
                                               len(durable_ops))
    m["storage.checkpoint_bytes_per_refresh"] = ratio(
        total("storage.append", "checkpoint_bytes"), len(durable_ops))
    checkpointing = [s for s in appends if s.counts.get("checkpoint")]
    m["storage.checkpoints"] = float(len(checkpointing))
    m["storage.checkpoint_ms"] = quantile(
        [s.duration / 1e6 for s in checkpointing], 0.5)

    recovers = named["recover"]
    read_ms = [sum(c.duration for c in s.children if c.name == "storage.read")
               / 1e6 for s in recovers]
    m["storage.recover_read_ms"] = quantile(read_ms, 0.5)
    m["storage.recover_read_bytes"] = quantile(
        [sum(c.counts.get("bytes", 0.0) for c in s.children
             if c.name == "storage.read") for s in recovers], 0.5)
    m["storage.recover_cpu_ms"] = quantile(
        [s.duration / 1e6 - read for s, read in zip(recovers, read_ms)], 0.5)
    m["storage.records_replayed"] = counters.get("storage.records_replayed",
                                                 0.0)

    m["runtime.admit_read_p99_us"] = quantile(
        durations("runtime.admit_read", 1e3), 0.99)
    m["runtime.admit_maint_p99_us"] = quantile(
        durations("runtime.admit_maint", 1e3), 0.99)
    m["runtime.refused"] = counters.get("runtime.refused", 0.0)
    m["loadgen.late_p99_us"] = counters.get("loadgen.late_p99_us", 0.0)

    def coverage(name):
        ops = named[name]
        return ratio(sum(s.covered() for s in ops),
                     sum(s.duration for s in ops))

    m["trace.refresh_coverage"] = coverage("refresh")
    m["trace.query_coverage"] = coverage("query")
    m["trace.overhead_frac"] = ratio(
        counters.get("traced_op_p50_us", 0.0),
        counters.get("untraced_op_p50_us", 0.0)) - 1.0

    table = []
    for name in sorted(name for name, group in named.items() if group):
        group = named[name]
        table.append((name, len(group),
                      sum(s.duration for s in group) / 1e6,
                      sum(s.self_time() for s in group) / 1e6,
                      quantile([s.duration / 1e3 for s in group], 0.5),
                      quantile([s.duration / 1e3 for s in group], 0.99)))
    return m, table


def coverage_checks(metrics, table):
    """One check per blocking op the run traced: (passed, message).

    A check passes when the op's layer spans cover at least COVERAGE_FLOOR
    of its time.
    """
    present = {row[0] for row in table}
    checks = []
    for op in ("refresh", "query"):
        if op not in present:
            continue
        value = metrics[f"trace.{op}_coverage"]
        checks.append((value >= COVERAGE_FLOOR,
                       f"layer spans cover {value:.1%} of `{op}` time "
                       f"(floor {COVERAGE_FLOOR:.0%})"))
    return checks


def print_table(table, out):
    out.write(f"{'span':32} {'count':>8} {'total ms':>11} {'self ms':>11} "
              f"{'p50 us':>10} {'p99 us':>10}\n")
    for name, count, total_ms, self_ms, p50, p99 in table:
        out.write(f"{name:32} {count:8d} {total_ms:11.2f} {self_ms:11.2f} "
                  f"{p50:10.1f} {p99:10.1f}\n")


def main(argv):
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    metrics, table = summarize(argv[1])
    print_table(table, sys.stdout)
    with open(BENCHMARK_JSON) as spec_file:
        per_layer = json.load(spec_file)["per_layer"]
    for entry in per_layer:
        print(f"{entry['name']} = {metrics[entry['name']]:.6g} "
              f"{entry['unit']}")
    covered = True
    for passed, message in coverage_checks(metrics, table):
        print(f"coverage check {'passed' if passed else 'FAILED'}: {message}")
        covered &= passed
    print(json.dumps(metrics))
    return 0 if covered else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
