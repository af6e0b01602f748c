#!/usr/bin/env python3
"""Seeded-bug corpus self-test for the semantic analyzer.

Each bad_*.cc unit seeds known violations, marked in the source:

    hot_.push_back(bytes);  // BUG: PIN-ESCAPE      <- that line
    // BUG: STATUS-DROP                             <- the NEXT code line
    (void)FlushOne();

The whole-line form exists because a trailing comment would read as a
(void)-justification to the STATUS-DROP checker itself. The analyzer
must report exactly the marked (line, rule) pairs for every bad unit —
nothing more, nothing less — and zero findings on every good_*.cc.
Each unit is analyzed in isolation (own model, stubs as --context), so
units may reuse class names.
"""

import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
ANALYZE = os.path.join(REPO, "tools", "analyzer", "analyze.py")
STUBS = os.path.join(HERE, "corpus_stubs.h")
HIERARCHY = os.path.join(HERE, "corpus_hierarchy.txt")

MARK = re.compile(r"//\s*BUG:\s*([A-Z][A-Z-]+)")
FINDING = re.compile(r"^.*?:(\d+): ([A-Z][A-Z-]+): (.*)$")
RULES = ("PIN-ESCAPE", "LOCK-ORDER", "STATUS-DROP", "WAL-ORDER")


def expected_findings(path):
    """(line, rule) pairs from the BUG markers in one corpus unit."""
    with open(path, "r", encoding="utf-8") as f:
        lines = f.read().splitlines()
    marks = set()
    for i, text in enumerate(lines):
        m = MARK.search(text)
        if not m:
            continue
        rule = m.group(1)
        if text.strip().startswith("//"):
            # whole-line marker: names the next non-comment line
            j = i + 1
            while j < len(lines) and lines[j].strip().startswith("//"):
                j += 1
            marks.add((j + 1, rule))
        else:
            marks.add((i + 1, rule))
    return marks


def analyze(path):
    cmd = [sys.executable, ANALYZE, path,
           "--context", STUBS,
           "--hierarchy", HIERARCHY,
           "--wal-scope", "analyzer_corpus"]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode == 2:
        raise RuntimeError(f"analyzer setup error on {path}:\n{proc.stderr}")
    got = set()
    for line in proc.stdout.splitlines():
        m = FINDING.match(line)
        if m:
            got.add((int(m.group(1)), m.group(2)))
    return got, proc.stdout


def main():
    bad = sorted(f for f in os.listdir(HERE) if f.startswith("bad_")
                 and f.endswith(".cc"))
    good = sorted(f for f in os.listdir(HERE) if f.startswith("good_")
                  and f.endswith(".cc"))
    if not bad or not good:
        print("run_corpus.py: corpus units missing", file=sys.stderr)
        return 2

    failures = []
    fired = set()
    for name in bad:
        path = os.path.join(HERE, name)
        want = expected_findings(path)
        if not want:
            failures.append(f"{name}: no BUG markers in a bad unit")
            continue
        got, raw = analyze(path)
        fired |= {rule for (_line, rule) in got}
        missing = want - got
        surprise = got - want
        if missing:
            failures.append(f"{name}: expected findings not reported: "
                            + ", ".join(f"line {l} {r}"
                                        for l, r in sorted(missing)))
        if surprise:
            failures.append(f"{name}: unexpected findings: "
                            + ", ".join(f"line {l} {r}"
                                        for l, r in sorted(surprise)))
        if (missing or surprise) and raw:
            failures.append(f"  analyzer output:\n" + "\n".join(
                "    " + ln for ln in raw.splitlines()))

    for name in good:
        got, raw = analyze(os.path.join(HERE, name))
        if got:
            failures.append(f"{name}: clean unit produced findings:\n"
                            + "\n".join("    " + ln
                                        for ln in raw.splitlines()))

    silent = [r for r in RULES if r not in fired]
    if silent:
        failures.append("rules never fired on the corpus: "
                        + ", ".join(silent))

    if failures:
        print(f"run_corpus.py: FAIL ({len(bad)} bad, {len(good)} good "
              "units)")
        for f in failures:
            print(f)
        return 1
    print(f"run_corpus.py: OK — {len(bad)} bad units fired exactly as "
          f"marked, {len(good)} good units clean, all {len(RULES)} rules "
          "exercised")
    return 0


if __name__ == "__main__":
    sys.exit(main())
