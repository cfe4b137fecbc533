#!/usr/bin/env bash
# Build the tree with ThreadSanitizer and run the parallel-engine and
# serving tests. A clean exit means TSan found no data races in the
# thread pool, the parallel executor, the logging sink, or the
# server's cross-thread hand-offs (admission groups, worker passes,
# reply batches and their ledger updates).
#
# Usage: scripts/check_tsan.sh [build_dir]
#
# Use MEMSENSE_SANITIZE=address the same way for an ASan pass:
#   cmake -B build-asan -S . -DMEMSENSE_SANITIZE=address
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${1:-${repo_root}/build-tsan}"

cmake -B "${build_dir}" -S "${repo_root}" \
    -DMEMSENSE_SANITIZE=thread \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo

# Only the targets under test: a full TSan build of every bench binary
# is slow and adds nothing to the race check.
cmake --build "${build_dir}" -j \
    --target util_thread_pool_test measure_parallel_test \
    serve_server_test serve_soak_test serve_loadgen_test

# halt_on_error makes the first race fail the run instead of just
# printing a report.
export TSAN_OPTIONS="halt_on_error=1 ${TSAN_OPTIONS:-}"

ctest --test-dir "${build_dir}" --output-on-failure \
    -R 'ThreadPoolTest|MeasureParallelTest|ServeServer|ServeSoak|Loadgen'

echo "TSan check passed: no data races in the parallel engine or the" \
     "server."
