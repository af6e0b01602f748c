#!/usr/bin/env python3
"""pictdb semantic analyzer driver (DESIGN.md §15).

Runs the PIN-ESCAPE / LOCK-ORDER / STATUS-DROP / WAL-ORDER checkers
over C++ sources and prints findings as `path:line: RULE: message`
(the same format as tools/pictdb_lint.py). Exit status: 0 clean,
1 findings, 2 usage/environment error.

Sources are read by the purpose-built parser in parse.py: hermetic, no
toolchain needed.
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checkers  # noqa: E402
import parse  # noqa: E402
from ir import Model  # noqa: E402

EXTS = (".cc", ".cpp", ".cxx", ".h", ".hpp")


def collect(paths):
    files = []
    for p in paths:
        if os.path.isdir(p):
            for root, _dirs, names in os.walk(p):
                for n in sorted(names):
                    if n.endswith(EXTS):
                        files.append(os.path.join(root, n))
        elif os.path.isfile(p):
            files.append(p)
        else:
            print(f"analyze.py: no such path: {p}", file=sys.stderr)
            sys.exit(2)
    return files


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("paths", nargs="+",
                    help="files/dirs to analyze and report on")
    ap.add_argument("--context", action="append", default=[],
                    help="extra files/dirs parsed for type information "
                         "but not reported on (e.g. corpus stubs)")
    ap.add_argument("--hierarchy", default="",
                    help="lock hierarchy file for LOCK-ORDER")
    ap.add_argument("--checks", default="pin,lock,status,wal",
                    help="comma list: pin,lock,status,wal")
    ap.add_argument("--wal-scope", default="src/wal,src/service",
                    help="comma list of path substrings where WAL-ORDER "
                         "applies (use '' to apply everywhere)")
    ap.add_argument("--relative-to", default="",
                    help="print paths relative to this directory")
    ap.add_argument("--verbose", action="store_true")
    args = ap.parse_args(argv)

    report_files = collect(args.paths)
    context_files = collect(args.context) if args.context else []
    if not report_files:
        print("analyze.py: nothing to analyze", file=sys.stderr)
        return 2

    model = Model()
    raw_lines = {}
    for path in report_files + context_files:
        with open(path, "r", encoding="utf-8", errors="replace") as f:
            text = f.read()
        model.add_unit(parse.parse_file(path, text))
        raw_lines[path] = text.splitlines()

    hierarchy = None
    if args.hierarchy:
        if not os.path.isfile(args.hierarchy):
            print(f"analyze.py: hierarchy file not found: {args.hierarchy}",
                  file=sys.stderr)
            return 2
        hierarchy = checkers.Hierarchy.load(args.hierarchy)

    enabled = {c.strip() for c in args.checks.split(",") if c.strip()}
    bad = enabled - {"pin", "lock", "status", "wal"}
    if bad:
        print(f"analyze.py: unknown checks: {','.join(sorted(bad))}",
              file=sys.stderr)
        return 2
    wal_scope = [s.strip() for s in args.wal_scope.split(",")]
    wal_scope = [s for s in wal_scope if s] or [""]

    findings = checkers.run_checkers(model, raw_lines, hierarchy,
                                     wal_scope, enabled)
    reported = set(os.path.abspath(p) for p in report_files)
    shown = 0
    for (path, line, rule, msg) in findings:
        if os.path.abspath(path) not in reported:
            continue
        out = path
        if args.relative_to:
            out = os.path.relpath(path, args.relative_to)
        print(f"{out}:{line}: {rule}: {msg}")
        shown += 1
    if args.verbose:
        print(f"analyze.py: files="
              f"{len(report_files)}+{len(context_files)} findings={shown}",
              file=sys.stderr)
    return 1 if shown else 0


if __name__ == "__main__":
    sys.exit(main())
