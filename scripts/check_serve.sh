#!/usr/bin/env bash
# Determinism check of the serve tools: build memsense_eval and
# memsense_serve under AddressSanitizer, run the 50-request fixture
# through memsense_eval at several worker counts plus a warm-cache
# rerun and through memsense_serve --stdio, and require every result
# stream to be byte-identical to the checked-in golden, order included.
# Catches both memory errors in the serve stack and any drift in the
# serving determinism contract (docs/serving.md).
#
# The JSON codec runs under ASan as well: the parser's hostile-input
# suite, the request decoder's differential test (the decoder is the
# first code network bytes reach) and the number formatter's printf
# comparisons (it shifts 128-bit products).
#
# Usage: scripts/check_serve.sh [build_dir]
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${1:-${repo_root}/build-asan}"

requests="${repo_root}/tests/serve/requests_50.jsonl"
golden="${repo_root}/tests/golden/serve_eval_50.jsonl"

cmake -B "${build_dir}" -S "${repo_root}" \
    -DMEMSENSE_SANITIZE=address \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo

cmake --build "${build_dir}" -j --target memsense_eval memsense_serve_bin \
    serve_json_hardening_test serve_request_decode_test serve_evaluator_test

export ASAN_OPTIONS="halt_on_error=1 ${ASAN_OPTIONS:-}"

tests_dir="${build_dir}/tests"
"${tests_dir}/serve_json_hardening_test"
"${tests_dir}/serve_request_decode_test"
"${tests_dir}/serve_evaluator_test" --gtest_filter='JsonNumber.*'
echo "OK: JSON codec suites pass under ASan"

eval_bin="${build_dir}/tools/memsense_eval"
scratch="$(mktemp -d)"
trap 'rm -rf "${scratch}"' EXIT

for jobs in 1 2 8; do
    "${eval_bin}" --requests "${requests}" --jobs "${jobs}" \
        > "${scratch}/out_j${jobs}.jsonl"
    diff -u "${golden}" "${scratch}/out_j${jobs}.jsonl" || {
        echo "FAIL: --jobs ${jobs} output differs from golden" >&2
        exit 1
    }
    echo "OK: --jobs ${jobs} matches golden"
done

# Warm rerun: evaluate the batch three times against the same cache
# and emit only the final pass — must still be byte-identical.
"${eval_bin}" --requests "${requests}" --jobs 4 --repeat 3 \
    > "${scratch}/out_warm.jsonl"
diff -u "${golden}" "${scratch}/out_warm.jsonl" || {
    echo "FAIL: warm-cache rerun output differs from golden" >&2
    exit 1
}
echo "OK: warm-cache rerun matches golden"

# The server answers each line on its connection's reader, in order:
# the stdio transport must reproduce the golden as it stands.
"${build_dir}/tools/memsense_serve" --stdio < "${requests}" \
    > "${scratch}/out_serve.jsonl"
diff -u "${golden}" "${scratch}/out_serve.jsonl" || {
    echo "FAIL: memsense_serve --stdio output differs from golden" >&2
    exit 1
}
echo "OK: memsense_serve --stdio matches golden"

echo "Serve check passed: byte-identical results at every worker" \
     "count and cache temperature and through the server, codec" \
     "suites green, with no ASan reports."
