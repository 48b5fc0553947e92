#!/usr/bin/env python3
"""Tie-aware diff of two in-process replays of one benchmark workload.

Each input holds one line per query, as the replay driver in
.claude/skills/verify/SKILL.md prints it:

    INDEX STRATEGY STATUS... PACKAGE OBJECTIVE_HEX PROVEN NODES LP_ITERS | PLAN

Per line, the two sides must agree on the index, strategy, status and
proven flag exactly, and on the objective within 1e-9 relative. Their
packages must be equal, or both sides proven optimal with that objective
(a tie: another optimal package). Everything after '|' (the planned
strategy) is ignored. Use it for a change that alters the search on
purpose; a change that must keep the search is checked with a plain cmp.

Usage:
    python3 tools/replay_diff.py PARENT.txt CHANGE.txt

Prints the tie and last-bit objective counts, how many lines are
bit-identical (answer; answer and work), and the node and LP-iteration
totals of each side. Exits 1 on any mismatch.
"""

import sys

OBJECTIVE_REL_TOL = 1e-9


def parse(line):
    fields = line.split("|", 1)[0].split()
    if len(fields) < 8:
        raise ValueError(f"malformed replay line: {line!r}")
    return {
        "index": fields[0],
        "strategy": fields[1],
        "status": " ".join(fields[2:-5]),
        "package": fields[-5],
        "objective": float.fromhex(fields[-4]),
        "objective_hex": fields[-4],
        "proven": fields[-3],
        "nodes": int(fields[-2]),
        "lp_iterations": int(fields[-1]),
    }


def read(path):
    with open(path) as f:
        return [parse(line) for line in f if line.strip()]


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[0])
        print("usage: replay_diff.py PARENT.txt CHANGE.txt")
        return 2
    try:
        old, new = read(argv[1]), read(argv[2])
    except (OSError, ValueError) as e:
        print(f"FAIL: {e}")
        return 1
    mismatches = []
    if len(old) != len(new):
        mismatches.append(f"line counts differ: {len(old)} vs {len(new)}")
    ties = last_bit = same_answer = same_work = 0
    for a, b in zip(old, new):
        where = f"query {a['index']}"
        exact = ("index", "strategy", "status", "proven")
        bad = [k for k in exact if a[k] != b[k]]
        if bad:
            mismatches.append(f"{where}: {', '.join(bad)} differ: "
                              f"{[a[k] for k in bad]} vs {[b[k] for k in bad]}")
            continue
        oa, ob = a["objective"], b["objective"]
        if abs(oa - ob) > OBJECTIVE_REL_TOL * max(abs(oa), abs(ob)):
            mismatches.append(f"{where}: objective {oa!r} vs {ob!r}")
            continue
        if a["objective_hex"] != b["objective_hex"]:
            last_bit += 1
        if a["package"] != b["package"]:
            if a["proven"] != "1":
                mismatches.append(f"{where}: package differs and is not "
                                  f"proven optimal: {a['package']} vs "
                                  f"{b['package']}")
                continue
            ties += 1
        answer = ("package", "objective_hex")
        if all(a[k] == b[k] for k in answer):
            same_answer += 1
            if a["nodes"] == b["nodes"] and \
                    a["lp_iterations"] == b["lp_iterations"]:
                same_work += 1

    for side, rows in (("old", old), ("new", new)):
        print(f"{side}: {len(rows)} queries, "
              f"{sum(r['nodes'] for r in rows)} nodes, "
              f"{sum(r['lp_iterations'] for r in rows)} LP iterations")
    print(f"bit-identical answers: {same_answer} "
          f"({same_work} with identical nodes and LP iterations)")
    print(f"equal-objective tie packages: {ties}; "
          f"objectives differing in the last bits: {last_bit}")
    for m in mismatches[:20]:
        print(f"MISMATCH {m}")
    if mismatches:
        print(f"FAIL: {len(mismatches)} mismatch(es)")
        return 1
    print("OK: same statuses, proven flags and objectives")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
