#!/usr/bin/env python3
"""Lint: nothing may hide from Clang's thread-safety analysis.

Two rules:

1. Raw standard-library synchronization primitives are banned. Every
   mutex, shared_mutex, and condition variable in this codebase must be
   one of the annotated wrappers from src/common/annotations.h (pb::Mutex,
   pb::SharedMutex, pb::CondVar, and the scoped lockers). A raw std
   primitive is invisible to the analysis, so a single stray std::mutex
   member silently exempts its guarded state from the -Wthread-safety CI
   lane. The wrapper header itself is the one place allowed to name std
   types.
2. The analysis has no escapes. The no_thread_safety_analysis attribute,
   or any macro spelling it (in any case), switches the analysis off for
   a whole function; code the analysis cannot check is redesigned instead
   (docs/adr/0003-concurrency-invariants.md). This rule covers every
   scanned file, the wrapper header included.

Names are matched in code only (comments and string literals are blanked
first), so prose may name what the rules ban; #include lines are matched
as written.

Scanned: src/ (recursively) and tools/*.cc. Tests, benchmarks, and fuzzers
are exempt: they may exercise raw primitives deliberately (e.g. hammering
a wrapper from std::threads).

Usage: python3 tools/check_annotations.py [repo_root]
Exit status: 0 clean, 1 violations found.
"""

import pathlib
import re
import sys

BANNED = re.compile(
    r"\bstd\s*::\s*("
    r"mutex|shared_mutex|timed_mutex|recursive_mutex|shared_timed_mutex|"
    r"condition_variable|condition_variable_any|"
    r"lock_guard|unique_lock|shared_lock|scoped_lock"
    r")\b"
)

BANNED_INCLUDE = re.compile(r'#\s*include\s*[<"](mutex|shared_mutex|condition_variable)[>"]')

ESCAPE = re.compile(r"no_thread_safety_analysis", re.IGNORECASE)

ALLOWED = {pathlib.PurePosixPath("src/common/annotations.h")}


def strip_comments_and_strings(text: str) -> str:
    """Blanks out comments and string literals, preserving line structure."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            i = n if j < 0 else j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            end = n if j < 0 else j + 2
            out.append("".join("\n" if ch == "\n" else " " for ch in text[i:end]))
            i = end
        elif c in "\"'":
            quote = c
            j = i + 1
            while j < n and text[j] != quote:
                j += 2 if text[j] == "\\" else 1
            i = min(j + 1, n)
            out.append(" " * 2)
        else:
            out.append(c)
            i += 1
    return "".join(out)


def check_file(root: pathlib.Path, rel: pathlib.PurePosixPath) -> list:
    text = (root / rel).read_text(encoding="utf-8", errors="replace")
    # Includes are checked on raw text (strings would not hide them anyway);
    # identifier uses on comment/string-stripped text to avoid false hits in
    # documentation prose.
    violations = []
    std_allowed = rel in ALLOWED
    stripped = strip_comments_and_strings(text)
    for lineno, line in enumerate(stripped.splitlines(), start=1):
        m = ESCAPE.search(line)
        if m:
            violations.append(
                (rel, lineno, f"thread-safety analysis escape ({m.group(0)})"))
        m = BANNED.search(line)
        if m and not std_allowed:
            violations.append((rel, lineno, f"raw std::{m.group(1)}"))
    for lineno, line in enumerate(text.splitlines(), start=1):
        m = BANNED_INCLUDE.search(line)
        if m and not std_allowed:
            violations.append((rel, lineno, f"#include <{m.group(1)}>"))
    return violations


def main() -> int:
    root = pathlib.Path(sys.argv[1]) if len(sys.argv) > 1 else pathlib.Path(
        __file__).resolve().parent.parent
    files = sorted(
        p for p in (root / "src").rglob("*")
        if p.suffix in (".h", ".cc") and p.is_file())
    files += sorted((root / "tools").glob("*.cc"))
    violations = []
    for path in files:
        rel = pathlib.PurePosixPath(path.relative_to(root).as_posix())
        violations.extend(check_file(root, rel))
    if violations:
        print("check_annotations: code hidden from the thread-safety analysis.")
        print("Use pb::Mutex / pb::SharedMutex / pb::CondVar / pb::MutexLock")
        print("from src/common/annotations.h so the analysis can see every")
        print("lock, and restructure code it cannot check instead of")
        print("exempting it:\n")
        for rel, lineno, what in violations:
            print(f"  {rel}:{lineno}: {what}")
        return 1
    print(f"check_annotations: OK ({len(files)} files clean)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
