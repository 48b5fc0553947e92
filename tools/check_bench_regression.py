#!/usr/bin/env python3
"""Compare deterministic solver counters between two Google Benchmark JSON
files and fail on regressions.

Usage:
    tools/check_bench_regression.py BASELINE.json NEW.json [--threshold 0.10]
    tools/check_bench_regression.py BASELINE.json NEW.json --exact

Run it locally exactly as CI does:
    ./build/bench_solver --benchmark_format=json \
        --benchmark_out=/tmp/bench_solver.json --benchmark_min_time=0.05
    python3 tools/check_bench_regression.py BENCH_solver.json \
        /tmp/bench_solver.json

Only counters that are deterministic functions of the model and options are
compared — simplex iteration counts, branch-and-bound node counts, presolve
tallies, objectives. Wall-clock fields (real_time, cpu_time, the adaptive
repetition count) and rates derived from them are never compared: CI
runners are noisy, counters are not.

Verdicts per benchmark present in both files:
  * work counters (lp_iterations, lp_dual_iterations, bnb_nodes) higher
    than baseline by more than the threshold  -> FAIL (a regression);
    lower by more than the threshold          -> note ("improvement —
    refresh the baseline"), not a failure.
  * presolve and reduced-cost tightening counters drifting more than the
    threshold either way -> FAIL (they are determinism canaries: any drift
    means the search changed and the checked-in baseline must be refreshed
    consciously).
  * objective drifting beyond 1e-6 relative -> FAIL (a different optimum
    is a correctness signal, not a perf one).
Benchmarks present in only one file are reported but never fail the gate
(CI runs a filtered subset of the full checked-in baseline) — except when
NOTHING overlaps, which fails: a gate that compared zero benchmarks is a
filter/baseline mismatch, not a pass.

--exact replaces the threshold and the objective tolerance with equality:
every tracked work counter, canary and objective of each benchmark in both
files must equal its baseline, and a change either way fails, naming the
benchmark and the counter. A change that must leave the search untouched
(a refactor, a speed-up of the same pivots) is checked this way; one
lp_iteration fewer is then a failure, not an improvement.
"""

import argparse
import json
import sys


class BenchFileError(Exception):
    """A benchmark JSON file that cannot be gated: missing, malformed, or
    structurally broken (e.g. a nameless entry). Reported as a failure with
    context instead of a traceback — a gate that crashes reads as CI flake,
    a gate that explains itself reads as what it is."""

# Higher-is-worse effort counters: only increases beyond the threshold fail.
# refactorizations/basis_updates are the factorization layer's work metric
# (deterministic, like the iteration counts — see LpSolution).
# block_reads is the storage layer's: segment-file block fetches (cache
# misses) during a cold solve, deterministic for a fixed table + block
# size + cache budget under a single-threaded solve.
WORK_COUNTERS = ("lp_iterations", "lp_dual_iterations", "bnb_nodes",
                 "refactorizations", "basis_updates", "block_reads")
# Symmetric determinism canaries: any drift beyond the threshold fails.
# zone_map_skipped_blocks is layout-independent (resident columns carry
# the same zone maps as spilled ones), so any drift means the pruner's
# zone path changed, not that the data moved.
CANARY_COUNTERS = ("presolve_fixed_bounds", "presolve_infeasible_children",
                   # Bounds tightened by reduced cost: a function of every
                   # node LP and incumbent, so any drift means the search
                   # took another path.
                   "reduced_cost_tightenings",
                   "zone_map_skipped_blocks",
                   # Incremental-maintenance partition counters: reuse and
                   # dirtiness are deterministic functions of the append
                   # sequence, so any drift means the maintenance path
                   # changed behaviour, not that the machine got slower.
                   "groups_reused", "dirty_groups")
OBJECTIVE_REL_TOL = 1e-6


def load_benchmarks(path):
    try:
        with open(path) as f:
            data = json.load(f)
    except OSError as e:
        raise BenchFileError(f"{path}: cannot read benchmark JSON: {e}")
    except ValueError as e:
        raise BenchFileError(f"{path}: malformed benchmark JSON: {e}")
    if not isinstance(data, dict) or not isinstance(
            data.get("benchmarks", []), list):
        raise BenchFileError(
            f"{path}: not a Google Benchmark JSON file "
            "(expected an object with a 'benchmarks' array)")
    out = {}
    for i, bench in enumerate(data.get("benchmarks", [])):
        if not isinstance(bench, dict):
            raise BenchFileError(
                f"{path}: benchmarks[{i}] is not an object")
        if bench.get("run_type", "iteration") != "iteration":
            continue
        name = bench.get("name")
        if not isinstance(name, str) or not name:
            raise BenchFileError(
                f"{path}: benchmarks[{i}] has no 'name' — cannot be "
                "matched against the baseline (truncated or hand-edited "
                "file?)")
        out[name] = bench
    return out


def as_number(path, name, counter, value):
    """A counter that is not a number cannot be gated; fail with context."""
    try:
        return float(value)
    except (TypeError, ValueError):
        raise BenchFileError(
            f"{path}: {name}: counter {counter} is not numeric "
            f"({value!r}) — cannot compare against the baseline")


def main():
    parser = argparse.ArgumentParser(
        description="Deterministic-counter benchmark regression gate")
    parser.add_argument("baseline")
    parser.add_argument("new")
    parser.add_argument("--threshold", type=float, default=0.10,
                        help="relative drift allowed on counters "
                             "(default 0.10 = 10%%)")
    parser.add_argument("--exact", action="store_true",
                        help="fail on any change of a tracked counter or "
                             "objective, either way")
    args = parser.parse_args()

    try:
        base = load_benchmarks(args.baseline)
        new = load_benchmarks(args.new)
    except BenchFileError as e:
        print(f"FAIL: {e}")
        return 1
    failures = []
    notes = []

    for name in sorted(set(base) | set(new)):
        if name not in new:
            notes.append(f"{name}: only in baseline (not run here)")
            continue
        if name not in base:
            notes.append(f"{name}: new benchmark with no baseline yet")
            continue
        b, n = base[name], new[name]
        for counter in WORK_COUNTERS + CANARY_COUNTERS:
            if counter not in b:
                continue  # baseline never tracked it for this benchmark
            if counter not in n:
                # A tracked counter vanishing (rename, dropped export) must
                # not silently shrink the gate's coverage.
                failures.append(
                    f"{name}: counter {counter} present in baseline but "
                    "missing from the new run — gate coverage lost")
                continue
            try:
                bv = as_number(args.baseline, name, counter, b[counter])
                nv = as_number(args.new, name, counter, n[counter])
            except BenchFileError as e:
                failures.append(str(e))
                continue
            scale = max(abs(bv), 1.0)
            drift = (nv - bv) / scale
            what = f"{name}: {counter} {bv:g} -> {nv:g} ({drift:+.1%})"
            if args.exact:
                if nv != bv:
                    failures.append(what + " changed (--exact)")
            elif counter in WORK_COUNTERS:
                if drift > args.threshold:
                    failures.append(what + " REGRESSION")
                elif drift < -args.threshold:
                    notes.append(what + " improvement — refresh the baseline")
            elif abs(drift) > args.threshold:
                failures.append(what + " drift (determinism canary)")
        if "objective" in b:
            if "objective" not in n:
                failures.append(
                    f"{name}: counter objective present in baseline but "
                    "missing from the new run — gate coverage lost")
            else:
                try:
                    bv = as_number(args.baseline, name, "objective",
                                   b["objective"])
                    nv = as_number(args.new, name, "objective",
                                   n["objective"])
                except BenchFileError as e:
                    failures.append(str(e))
                else:
                    if args.exact and nv != bv:
                        failures.append(
                            f"{name}: objective {bv!r} -> {nv!r} "
                            "changed (--exact)")
                    elif abs(nv - bv) > OBJECTIVE_REL_TOL * max(abs(bv), 1.0):
                        failures.append(
                            f"{name}: objective {bv!r} -> {nv!r} — "
                            "different optimum")

    for note in notes:
        print(f"[note] {note}")
    compared = set(base) & set(new)
    if not compared:
        # A gate that compares nothing must not pass: an empty overlap
        # means the CI filter and the checked-in baseline have drifted
        # apart (rename, filter typo, name-suffix change) and every run
        # would be vacuously green.
        print("FAIL: no benchmark names in common between "
              f"{args.baseline} and {args.new} — the gate compared "
              "nothing; realign the benchmark filter with the baseline.")
        return 1
    if failures:
        print(f"\n{len(failures)} counter regression(s) vs {args.baseline}:")
        for failure in failures:
            print(f"  FAIL {failure}")
        print("\nIf the change is intentional, refresh the checked-in "
              "baseline with the command in this script's docstring.")
        return 1
    if args.exact:
        print(f"OK: deterministic counters and objectives equal to "
              f"{args.baseline} ({len(compared)} benchmarks compared)")
    else:
        print(f"OK: deterministic counters within {args.threshold:.0%} of "
              f"{args.baseline} ({len(compared)} benchmarks compared)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
