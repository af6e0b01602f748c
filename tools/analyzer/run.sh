#!/usr/bin/env bash
# Run the pictdb semantic analyzer (DESIGN.md §15).
#
#   tools/analyzer/run.sh                 # src/ gate
#   tools/analyzer/run.sh --corpus        # seeded-bug corpus self-test
#   tools/analyzer/run.sh src/wal         # restrict to a subtree
#
# Exit status: 0 clean, 1 findings (or corpus failure), 2 setup error.
set -u

repo="$(cd "$(dirname "$0")/../.." && pwd)"
hierarchy="$repo/tools/analyzer/lock_hierarchy.txt"
corpus=0
paths=()

for arg in "$@"; do
  case "$arg" in
    --corpus) corpus=1 ;;
    --help|-h) sed -n '2,10p' "$0" | sed 's/^# \{0,1\}//'; exit 0 ;;
    *) paths+=("$arg") ;;
  esac
done

if ! python3 "$repo/tools/analyzer/gen_lock_hierarchy.py" --check >/dev/null; then
  echo "run.sh: lock_hierarchy.txt is stale — run tools/analyzer/gen_lock_hierarchy.py" >&2
  exit 2
fi

if [ "$corpus" -eq 1 ]; then
  exec python3 "$repo/tests/analyzer_corpus/run_corpus.py"
fi

[ "${#paths[@]}" -eq 0 ] && paths=("$repo/src")
exec python3 "$repo/tools/analyzer/analyze.py" "${paths[@]}" \
  --hierarchy "$hierarchy" --relative-to "$repo" --verbose
