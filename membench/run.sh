#!/usr/bin/env bash
# Builds the repository benchmark and the program it measures from
# source, then runs it from the repository root:
#
#   bash membench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   bash membench/run.sh --workload all --seed <n> --seconds <s> --trace <0|1>
#   bash membench/run.sh --self-test
#
# Workloads: sweep_fig03 sweep_fig07 serve_cold serve_hot. "all" runs
# each in its own process. Build products and run files go to
# .bench_build/ under the root; compiler output goes to stderr, so the
# last line on stdout is the run's JSON result.
set -euo pipefail

bench_dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$bench_dir")"
cd "$root"

build=.bench_build
mkdir -p "$build/tmp" "$build/run"
export TMPDIR="$root/$build/tmp"

jobs="$(nproc 2>/dev/null || echo 2)"
if (( jobs > 4 )); then jobs=4; fi
generator=()
if command -v ninja >/dev/null 2>&1; then generator=(-G Ninja); fi
if [[ ! -f "$build/build.ninja" && ! -f "$build/Makefile" ]]; then
    cmake -S "$bench_dir" -B "$build" "${generator[@]}" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo >&2
fi

if [[ "${1:-}" == "--self-test" ]]; then
    cmake --build "$build" -j "$jobs" --target membench_test >&2
    exec "$build/membench_test"
fi
cmake --build "$build" -j "$jobs" --target membench memsense_serve_bin >&2

MEMBENCH_COMMIT=unknown
if [[ -e .git ]]; then
    MEMBENCH_COMMIT="$(git rev-parse --short=12 HEAD 2>/dev/null || echo unknown)"
fi
MEMBENCH_SOURCE_DIGEST="$(find src tools/memsense_serve.cc membench -type f \
    | LC_ALL=C sort | xargs cat | sha256sum | cut -c1-16)"
export MEMBENCH_COMMIT MEMBENCH_SOURCE_DIGEST

args=("$@")
for ((i = 0; i + 1 < ${#args[@]}; i++)); do
    if [[ "${args[i]}" == "--workload" && "${args[i+1]}" == "all" ]]; then
        status=0
        for w in sweep_fig03 sweep_fig07 serve_cold serve_hot; do
            args[i+1]="$w"
            "$build/membench" "${args[@]}" || status=1
        done
        exit "$status"
    fi
done
exec "$build/membench" "$@"
