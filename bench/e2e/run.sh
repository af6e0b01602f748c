#!/usr/bin/env bash
# Builds and runs the repository benchmark, bench/e2e/pictbench.
#
#   bench/e2e/run.sh --workload=NAME --seed=S [--seconds=T] [--trace]
#   bench/e2e/run.sh --all --seed=S [--seconds=T] [--trace]
#   bench/e2e/run.sh --smoke            # every workload, small, 2 s each
#
# Also accepts the space-separated form
#   --workload NAME --seed S --seconds T --trace 0|1
# Workloads: hot-read, cold-read, read-write, join. For each workload
# the benchmark prints a diagnostics line and then one JSON result line
# on stdout; build output goes to stderr. The build is kept in
# .bench_build/ at the repository root and reused by later runs.
# Exit status: 0 when every workload passed, else the first failure's.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "${here}/../.." && pwd)"
build="${root}/.bench_build/e2e"
# Relative to the repository root, which keeps the unix socket path short.
workdir=".bench_build/work"

workloads=()
seed=1
seconds=""
trace=0
smoke=0
while [[ $# -gt 0 ]]; do
  case "$1" in
    --workload=*) workloads+=("${1#*=}") ;;
    --workload) workloads+=("${2:?--workload needs a name}"); shift ;;
    --seed=*) seed="${1#*=}" ;;
    --seed) seed="${2:?--seed needs a value}"; shift ;;
    --seconds=*) seconds="${1#*=}" ;;
    --seconds) seconds="${2:?--seconds needs a value}"; shift ;;
    --trace=*) trace="${1#*=}" ;;
    --trace)
      trace=1
      if [[ $# -gt 1 && "$2" =~ ^[01]$ ]]; then trace="$2"; shift; fi ;;
    --all) workloads=(hot-read cold-read read-write join) ;;
    --smoke) smoke=1 ;;
    *) echo "run.sh: unknown argument: $1" >&2; exit 2 ;;
  esac
  shift
done
if [[ ${smoke} == 1 && ${#workloads[@]} -eq 0 ]]; then
  workloads=(hot-read cold-read read-write join)
fi
if [[ ${#workloads[@]} -eq 0 ]]; then
  echo "usage: run.sh --workload=NAME|--all|--smoke [--seed=S]" \
       "[--seconds=T] [--trace]" >&2
  exit 2
fi
if [[ -z "${seconds}" ]]; then
  seconds=15  # BENCHMARK.json run_seconds
  if [[ ${smoke} == 1 ]]; then seconds=2; fi
fi

# The benchmark links the library built from this checkout's sources.
if [[ ! -f "${root}/CMakeLists.txt" || ! -f "${root}/src/CMakeLists.txt" ]]; then
  echo "run.sh: no pictdb sources under ${root}; cannot build the benchmark" >&2
  exit 2
fi
if [[ ! -f "${build}/CMakeCache.txt" ]]; then
  generator=()
  if command -v ninja > /dev/null; then generator=(-G Ninja); fi
  cmake -S "${here}" -B "${build}" ${generator[@]+"${generator[@]}"} \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo >&2
fi
cmake --build "${build}" --target pictbench -j "$(nproc)" >&2

cd "${root}"
status=0
for workload in "${workloads[@]}"; do
  args=(--workload="${workload}" --seed="${seed}" --seconds="${seconds}"
        --workdir="${workdir}")
  if [[ ${trace} == 1 ]]; then args+=(--trace); fi
  if [[ ${smoke} == 1 ]]; then args+=(--smoke); fi
  rc=0
  "${build}/pictbench" "${args[@]}" || rc=$?
  if [[ ${rc} -ne 0 && ${status} -eq 0 ]]; then status=${rc}; fi
done
exit "${status}"
