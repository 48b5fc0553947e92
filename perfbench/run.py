#!/usr/bin/env python3
"""End-to-end pbserve benchmark: builds perfbench/ and runs one measurement.

  python3 perfbench/run.py --workload solve --seed 1 --seconds 30 --trace 0
  python3 perfbench/run.py --smoke

Run from the repository root. The benchmark is built from source (Release)
into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs the
workload with the given seed for the given number of seconds, and prints
every metric by name and unit; the last stdout line is one JSON object with
the keys correct, attempted, failed and metrics. --trace 1 reports the
per-layer metrics instead of the end-to-end ones. The full result, with the
environment stamp, is also written to .bench_results/. Spilled segment
files live under .bench_work/ and are removed when the run ends.

--smoke runs the self-tests: tiny tables, every workload, traced and
untraced, asserting that every metric named in BENCHMARK.json is printed
with its unit, that the answer checker's seeded corruptions are caught,
that the replay matches the served packages, and that no spilled segment
file is left behind.
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
WORKLOADS = ["solve", "out-of-core", "append"]
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures and builds the benchmark; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "engine", "engine.h")):
        log("perfbench: the library sources (src/) are missing; "
            "run from a full checkout")
        sys.exit(2)
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    for cmd in (["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1),
                 "--target", "pbbench"]):
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout)
            log("perfbench: build failed")
            sys.exit(2)
    # The binary itself refuses to report from a non-Release build.
    return os.path.join(build_dir, "pbbench")


def commit_id():
    """The git commit, or a digest of the sources when not in a git tree."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        if proc.returncode == 0:
            return "git:" + proc.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree:" + digest.hexdigest()[:16]


def run_once(binary, workload, seed, seconds, trace, smoke=False):
    """Runs the benchmark binary; returns (exit code, stdout, result path)."""
    results = os.path.join(ROOT, ".bench_results")
    work = os.path.join(ROOT, ".bench_work")
    os.makedirs(results, exist_ok=True)
    os.makedirs(work, exist_ok=True)
    tag = "smoke_" if smoke else ""
    result_file = os.path.join(
        results, f"{tag}{workload}_seed{seed}_trace{trace}.json")
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", work, "--result-file", result_file,
           "--commit", commit_id()]
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: run timed out")
        return 124, "", result_file
    return proc.returncode, proc.stdout, result_file


def smoke():
    binary = build()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []

    def check(cond, what):
        print(("PASS " if cond else "FAIL ") + what)
        if not cond:
            failures.append(what)

    for workload in WORKLOADS:
        for trace in (0, 1):
            name = f"{workload} trace={trace}"
            code, out, result_file = run_once(binary, workload, 1, 1.0, trace,
                                              smoke=True)
            check(code == 0, f"{name}: exits 0")
            lines = out.strip().splitlines()
            try:
                last = json.loads(lines[-1])
            except (IndexError, ValueError):
                check(False, f"{name}: last line is JSON")
                continue
            check(set(last) == {"correct", "attempted", "failed", "metrics"},
                  f"{name}: result keys")
            check(last.get("correct") is True and last.get("failed") == 0,
                  f"{name}: correct, 0 failed")
            metrics = last.get("metrics", {})
            check(set(metrics) == set(expected[trace]),
                  f"{name}: every named metric reported")
            check(all(metrics[k].get("unit") == u
                      for k, u in expected[trace].items() if k in metrics),
                  f"{name}: every metric carries its unit")
            check(all(f" {k} " in out for k in expected[trace]),
                  f"{name}: every metric printed by name")
            with open(result_file) as f:
                full = json.load(f)
            check(full.get("checker_self_test") == "pass",
                  f"{name}: checker flags a dropped row and a moved objective")
            check(full.get("spill_files_removed") is True,
                  f"{name}: spilled segment files removed")
            if trace:
                check(full.get("replayed", 0) > 0 and
                      full.get("replay_mismatches") == 0,
                      f"{name}: replay matches the served packages")
    leftovers = [os.path.join(d, n)
                 for d, _, names in os.walk(os.path.join(ROOT, ".bench_work"))
                 for n in names if n.endswith(".seg")]
    check(not leftovers, "no segment files left under .bench_work")
    print(f"smoke: {len(failures)} failure(s)")
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    binary = build()
    code, out, _ = run_once(binary, args.workload, args.seed, args.seconds,
                            args.trace)
    sys.stdout.write(out)
    shutil.rmtree(os.path.join(ROOT, ".bench_work"), ignore_errors=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
