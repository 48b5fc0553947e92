#!/usr/bin/env python3
"""Side-by-side report of two perfbench result sets, layer by layer.

  python3 perfbench/report.py BASE_DIR NEW_DIR

Each directory holds the JSON files perfbench/run.py writes to
.bench_results/ (one per run; copy the directory aside between commits).
For every workload the report prints how many runs each side has (valid
and invalid), each end-to-end metric's median and quartiles on both sides,
the change of the median, and a verdict against the metric's bound in
BENCHMARK.json; then the reported but ungated query latency, and each
per-layer metric's median on both sides, grouped by layer, so a change
shows where its saving sits.

A run is invalid when the host took more than 2% of the machine's CPU time
away (steal) during it; the program cannot cause that. Invalid runs are
counted and shown, but not used for medians.
"""

import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# Query latency: in every result file, but too host-dependent for a bound.
UNGATED = ("query_p50_ms", "query_p99_ms")


def empty():
    return {"e2e": {}, "layer": {}, "valid": 0, "invalid": 0}


def load(directory):
    """{workload: {"e2e": {metric: [values]}, "layer": {...}, counts}}"""
    out = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            run = json.load(f)
        stamp = run.get("stamp", {})
        if stamp.get("smoke"):
            continue  # self-tests are not data points
        side = out.setdefault(stamp.get("workload", "?"), empty())
        if not run.get("valid", False):
            side["invalid"] += 1
            continue
        side["valid"] += 1
        e2e = dict(run.get("end_to_end", {}))
        for name in UNGATED:
            if name in run:
                e2e[name] = {"value": run[name]}
        for name, m in e2e.items():
            side["e2e"].setdefault(name, []).append(m["value"])
        if stamp.get("trace"):
            for name, m in run.get("per_layer", {}).items():
                side["layer"].setdefault(name, []).append(m["value"])
    return out


def summary(values):
    """(median, q1, q3, values) as statistics.quantiles(n=4) gives them."""
    if not values:
        return None
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, values
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, values


def fmt(s):
    return "-" if s is None else f"{s[0]:.4g} [{s[1]:.4g}, {s[2]:.4g}]"


def change(a, b):
    if a is None or b is None or a[0] == 0:
        return "-"
    return f"{100.0 * (b[0] - a[0]) / abs(a[0]):+.1f}%"


def verdict(spec, a, b):
    """Worse-than-bound check on the median, against the base's spread."""
    if a is None or b is None:
        return "unresolved: no valid runs on " + ("base" if a is None else "new")
    if a[0] == 0:
        return "unresolved: base median is 0"
    sign = -1.0 if spec.get("better") == "higher" else 1.0
    worse = sign * (b[0] - a[0]) / abs(a[0])
    if worse > spec["bound"]:
        return "WORSE than bound"
    if all(sign * (y - x) < 0 for x in a[3] for y in b[3]):
        return "better in every run"
    if (a[2] - a[1]) / abs(a[0]) > spec["bound"]:
        return "unresolved (base spread > bound)"
    return "within bound"


def main():
    if len(sys.argv) != 3:
        print(__doc__)
        return 2
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    base, new = load(sys.argv[1]), load(sys.argv[2])
    for workload in sorted(set(base) | set(new)):
        b = base.get(workload, empty())
        n = new.get(workload, empty())
        print(f"== {workload}  (runs: base {b['valid']} valid, {b['invalid']} "
              f"invalid; new {n['valid']} valid, {n['invalid']} invalid)")
        print(f"  {'end-to-end':32s} {'base median [q1, q3]':32s} "
              f"{'new median [q1, q3]':32s} {'change':>8s}")
        for name in [m["name"] for m in spec["end_to_end"]]:
            sa, sb = summary(b["e2e"].get(name)), summary(n["e2e"].get(name))
            print(f"  {name:32s} {fmt(sa):32s} {fmt(sb):32s} "
                  f"{change(sa, sb):>8s}  {verdict(bounds[name], sa, sb)}")
        for name in UNGATED:
            sa, sb = summary(b["e2e"].get(name)), summary(n["e2e"].get(name))
            print(f"  {name:32s} {fmt(sa):32s} {fmt(sb):32s} "
                  f"{change(sa, sb):>8s}  (reported, no bound)")
        layer = None
        for name in [m["name"] for m in spec["per_layer"]]:
            if name.split(".")[0] != layer:
                layer = name.split(".")[0]
                print(f"  [{layer}]")
            sa = summary(b["layer"].get(name))
            sb = summary(n["layer"].get(name))
            print(f"    {name:38s} {fmt(sa):32s} {fmt(sb):32s} "
                  f"{change(sa, sb):>8s}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
