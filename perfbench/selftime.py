#!/usr/bin/env python3
"""Per-layer busy and self time from a span dump.

    python3 perfbench/selftime.py .bench_build/spans/paper-fft-seed1.csv

A dump holds the spans of one traced answer, one row per span:
id,parent,name,node,start_us,end_us (node -1 is controller work). A span's
self time is its duration minus the part of its interval covered by its
children; children on different nodes may overlap each other, so their
intervals are merged before subtracting. Prints, per span name: calls, busy
time (sum of durations) and self time, in milliseconds.
"""
import csv
import sys
from collections import defaultdict


def covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of `intervals`."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def main(path):
    with open(path) as f:
        spans = [dict(r, id=int(r["id"]), parent=int(r["parent"]),
                      start=float(r["start_us"]), end=float(r["end_us"]))
                 for r in csv.DictReader(f)]
    children = defaultdict(list)
    for s in spans:
        if s["parent"] >= 0:
            children[s["parent"]].append((s["start"], s["end"]))
    calls, busy, self_time = defaultdict(int), defaultdict(float), defaultdict(float)
    for s in spans:
        duration = s["end"] - s["start"]
        calls[s["name"]] += 1
        busy[s["name"]] += duration
        self_time[s["name"]] += duration - covered(children[s["id"]],
                                                   s["start"], s["end"])
    print(f"{'span':16s} {'calls':>8s} {'busy_ms':>12s} {'self_ms':>12s}")
    for name in sorted(busy, key=busy.get, reverse=True):
        print(f"{name:16s} {calls[name]:8d} {busy[name] / 1e3:12.3f} "
              f"{self_time[name] / 1e3:12.3f}")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    main(sys.argv[1])
