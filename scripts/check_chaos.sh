#!/usr/bin/env bash
# Chaos harness for the long-running evaluation server: build the
# daemon and the load generator under AddressSanitizer, then drive a
# real memsense_serve process over a Unix socket through a matrix of
# injected fault sites and stress configurations. Every scenario must
# end with: loadgen exit 0 with every request classified, server exit 0
# after SIGTERM, and a consistent reply ledger in --stats-json
# (accepted == ok + error + write-failure replies). The batch tool's
# golden output is re-checked at the end so none of the serving-layer
# churn can drift the byte-stable evaluation contract.
#
# Faults reach the server through MEMSENSE_FAULTS; the loadgen runs
# with that variable stripped so only the server misbehaves.
#
# Usage: scripts/check_chaos.sh [build_dir]
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${1:-${repo_root}/build-asan}"

cmake -B "${build_dir}" -S "${repo_root}" \
    -DMEMSENSE_SANITIZE=address \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo

cmake --build "${build_dir}" -j \
    --target memsense_serve_bin memsense_loadgen memsense_eval

export ASAN_OPTIONS="halt_on_error=1 detect_leaks=1 ${ASAN_OPTIONS:-}"

serve_bin="${build_dir}/tools/memsense_serve"
loadgen_bin="${build_dir}/tools/memsense_loadgen"
eval_bin="${build_dir}/tools/memsense_eval"
fixture_src="${repo_root}/tests/serve/requests_50.jsonl"
golden="${repo_root}/tests/golden/serve_eval_50.jsonl"

scratch="$(mktemp -d)"
# The shared fixture carries a deliberately-malformed line for the
# batch tool's parse-error path; the loadgen replays JSON objects only
# (malformed-line handling is covered by serve_server_test).
requests="${scratch}/requests.jsonl"
grep '^{' "${fixture_src}" > "${requests}"
server_pid=""
cleanup() {
    [ -n "${server_pid}" ] && kill "${server_pid}" 2>/dev/null || true
    [ -n "${server_pid}" ] && wait "${server_pid}" 2>/dev/null || true
    rm -rf "${scratch}"
}
trap cleanup EXIT

require_json_field() { # file needle label
    grep -q "$2" "$1" || {
        echo "FAIL($3): $2 not found in $1" >&2
        cat "$1" >&2
        exit 1
    }
}

# Run one scenario: start the server with the given fault spec and
# extra flags, fire the loadgen at it, SIGTERM the server, and check
# both exit codes plus the server's ledger consistency.
#   run_scenario <name> <fault_spec> <loadgen_extra...>
# Extra server flags come in via the SERVER_FLAGS array variable; the
# loadgen's fixture and connection count via REQUESTS and CONNECTIONS
# (default: the shared fixture on 4 connections). WARM names a fixture
# replayed once on one connection before the measured run.
run_scenario() {
    local name="$1" faults="$2"
    shift 2
    local sock="${scratch}/${name}.sock"
    local stats="${scratch}/${name}.stats.json"
    local report="${scratch}/${name}.report.json"

    echo "=== scenario ${name} (faults: ${faults:-none}) ==="
    MEMSENSE_FAULTS="${faults}" "${serve_bin}" --unix "${sock}" \
        --stats-json "${stats}" "${SERVER_FLAGS[@]}" \
        2>"${scratch}/${name}.server.log" &
    server_pid=$!

    # Wait for the socket to appear (the server unlinks stale ones).
    for _ in $(seq 1 100); do
        [ -S "${sock}" ] && break
        kill -0 "${server_pid}" 2>/dev/null || {
            echo "FAIL(${name}): server died on startup" >&2
            cat "${scratch}/${name}.server.log" >&2
            exit 1
        }
        sleep 0.05
    done

    if [ -n "${WARM:-}" ]; then
        env -u MEMSENSE_FAULTS "${loadgen_bin}" --unix "${sock}" \
            --requests "${WARM}" --connections 1 \
            --total "$(wc -l < "${WARM}")" --recv-timeout-ms 10000 \
            >/dev/null 2>"${scratch}/${name}.warm.log" || {
            echo "FAIL(${name}): warm-up loadgen exited non-zero" >&2
            cat "${scratch}/${name}.warm.log" >&2
            exit 1
        }
    fi
    env -u MEMSENSE_FAULTS "${loadgen_bin}" --unix "${sock}" \
        --requests "${REQUESTS:-${requests}}" \
        --connections "${CONNECTIONS:-4}" --total 200 \
        --recv-timeout-ms 10000 --report-json "${report}" "$@" \
        >/dev/null 2>"${scratch}/${name}.loadgen.log" || {
        echo "FAIL(${name}): loadgen exited non-zero" >&2
        cat "${scratch}/${name}.loadgen.log" >&2
        exit 1
    }

    kill -TERM "${server_pid}"
    local rc=0
    wait "${server_pid}" || rc=$?
    server_pid=""
    if [ "${rc}" -ne 0 ]; then
        echo "FAIL(${name}): server exit ${rc} after SIGTERM" >&2
        cat "${scratch}/${name}.server.log" >&2
        exit 1
    fi

    # The two ledgers: every accepted request got exactly one reply
    # (server side), every sent request got classified (client side).
    require_json_field "${stats}" '"consistent":true' "${name}"
    echo "OK: ${name}"
}

# --- Scenario matrix ---------------------------------------------------

# Baseline: no faults, default admission config.
SERVER_FLAGS=(--workers 2)
run_scenario baseline ""

# One scenario per server-side fault site, firing probabilistically.
for site in server.read server.parse server.enqueue server.solve \
            server.write evaluator.solve; do
    SERVER_FLAGS=(--workers 2)
    run_scenario "fault-${site}" "seed=7;${site}:throw:p=0.1"
done

# Overload: delay faults jam the one worker while 16 closed-loop
# connections keep 16 cold requests in flight against a queue of 2, so
# admission must shed (more than a worker plus the queue can hold), and
# shedding must stay bounded: some ok, some shed, none lost.
#   check_shedding <name> [stale]
check_shedding() {
    python3 - "${scratch}/$1.report.json" "${scratch}/$1.stats.json" \
        "${2:-}" <<'EOF'
import json, sys
report = json.load(open(sys.argv[1]))
stats = json.load(open(sys.argv[2]))
stale = sys.argv[3] == "stale"
sent = report["sent"]
assert sent == 200, f"loadgen lost requests: {report}"
assert stats["shed"] > 0, f"overload never shed: {stats}"
assert report["ok"] > 0, f"nothing succeeded under overload: {report}"
assert report["overloaded"] < sent, f"everything was shed: {report}"
if stale:
    assert stats["stale_served"] > 0, f"no stale answers: {stats}"
    assert report["degraded"] > 0, f"no degraded replies: {report}"
    assert report["degraded"] == stats["stale_served"], \
        f'degraded {report["degraded"]} vs stale_served {stats["stale_served"]}'
print(f'shed {stats["shed"]} of {sent}, ok {report["ok"]},'
      f' stale_served {stats["stale_served"]}')
EOF
}

SERVER_FLAGS=(--workers 1 --max-queue 2)
CONNECTIONS=16 run_scenario overload "seed=7;server.solve:delay=20:p=0.5"
require_json_field "${scratch}/overload.report.json" '"overloaded":' overload
check_shedding overload
echo "OK: overload shedding is bounded (some ok, some shed, none lost)"

# Deadline pressure: every request carries a tight budget while solves
# are randomly delayed; replies must be ok or deadline_exceeded.
SERVER_FLAGS=(--workers 2 --default-deadline-ms 15)
run_scenario deadlines "seed=11;server.solve:delay=25:p=0.4" \
    --deadline-ms 15

# Stale degradation: the same overload, over near-duplicate sweep
# points. Each group shares a 3-significant-digit coarse key but every
# line has its own exact fingerprint, so a shed request misses the
# cache yet can be answered stale (`"degraded":true`) from a neighbour
# instead of being shed outright. A warm-up pass solves three other
# members of each group first; the shed replies of the flood come back
# far faster than a delayed solve, so without it the whole run can be
# over before any neighbour is solved.
near_dups="${scratch}/near_duplicates.jsonl"
near_warm="${scratch}/near_duplicates_warm.jsonl"
for base in 10 20 30 40; do
    for k in $(seq 1 12); do
        printf '{"workload":{"mpki":%d.%04d}}\n' "${base}" "${k}"
    done
done > "${near_dups}"
for base in 10 20 30 40; do
    for k in 1 2 3; do
        printf '{"workload":{"mpki":%d.%05d}}\n' "${base}" "${k}"
    done
done > "${near_warm}"
SERVER_FLAGS=(--workers 1 --max-queue 2 --allow-stale)
CONNECTIONS=16 REQUESTS="${near_dups}" WARM="${near_warm}" \
    run_scenario degraded "seed=7;server.solve:delay=20:p=0.5"
check_shedding degraded stale
echo "OK: degraded (shed requests answered stale)"

# Filling the stale cache is best effort: a fault there, on the
# single-job and the batched solve path alike, must cost neither a
# second reply (ledger) nor a worker thread (clean exit on SIGTERM).
SERVER_FLAGS=(--workers 1 --max-queue 2 --allow-stale)
CONNECTIONS=16 REQUESTS="${near_dups}" WARM="${near_warm}" \
    run_scenario degraded-store-fault \
    "seed=7;server.solve:delay=20:p=0.5;server.stale_store:throw:p=0.5"
check_shedding degraded-store-fault stale
echo "OK: degraded-store-fault (stale answers despite store faults)"

# --- Batching x quota matrix -------------------------------------------

# Fault sites with batching on: server.batch fires between batch
# assembly and the evaluator call, and the solve-path sites now cover
# the coalesced dispatch shape as well.
for site in server.batch server.solve evaluator.solve; do
    SERVER_FLAGS=(--workers 2 --max-batch 16 --batch-linger-ms 5)
    run_scenario "batch-fault-${site}" "seed=13;${site}:throw:p=0.1"
done

# Batched overload: delay faults hold the worker while the queue
# builds, so drain passes actually coalesce multi-request batches.
SERVER_FLAGS=(--workers 1 --max-queue 32 --max-batch 16 \
              --batch-linger-ms 5)
run_scenario batch-overload "seed=19;server.solve:delay=20:p=0.5"
require_json_field "${scratch}/batch-overload.stats.json" \
    '"batches":' batch-overload

# Per-client quotas under a skewed client mix: two oversized requests
# in the fixture exceed the 1 KiB per-client byte quota every time
# they are sent, so quota sheds MUST appear, as `quota_exceeded` on
# the client side and `quota_shed` (globally and in the per-client
# ledgers) on the server side — while everything else keeps flowing.
fat_pad="$(head -c 1200 /dev/zero | tr '\0' 'x')"
quota_requests="${scratch}/quota_requests.jsonl"
cp "${requests}" "${quota_requests}"
echo "{\"workload\":{\"mpki\":47.5},\"pad\":\"${fat_pad}\"}" \
    >> "${quota_requests}"
echo "{\"workload\":{\"mpki\":48.5},\"pad\":\"${fat_pad}\"}" \
    >> "${quota_requests}"
sock="${scratch}/quota.sock"
stats="${scratch}/quota.stats.json"
report="${scratch}/quota.report.json"
echo "=== scenario quota-skew (faults: server.solve delay) ==="
MEMSENSE_FAULTS="seed=23;server.solve:delay=5:p=0.3" \
    "${serve_bin}" --unix "${sock}" --stats-json "${stats}" \
    --workers 2 --max-batch 16 --batch-linger-ms 2 \
    --max-queue-per-client 8 --max-inflight-kb-per-client 1 \
    2>"${scratch}/quota.server.log" &
server_pid=$!
for _ in $(seq 1 100); do
    [ -S "${sock}" ] && break
    sleep 0.05
done
env -u MEMSENSE_FAULTS "${loadgen_bin}" --unix "${sock}" \
    --requests "${quota_requests}" --connections 4 --total 200 \
    --clients-skewed 0.5 --recv-timeout-ms 10000 \
    --report-json "${report}" \
    >/dev/null 2>"${scratch}/quota.loadgen.log" || {
    echo "FAIL(quota-skew): loadgen exited non-zero" >&2
    cat "${scratch}/quota.loadgen.log" >&2
    exit 1
}
kill -TERM "${server_pid}"
rc=0
wait "${server_pid}" || rc=$?
server_pid=""
[ "${rc}" -eq 0 ] || {
    echo "FAIL(quota-skew): server exit ${rc} after SIGTERM" >&2
    cat "${scratch}/quota.server.log" >&2
    exit 1
}
require_json_field "${stats}" '"consistent":true' quota-skew
require_json_field "${stats}" '"clients":{' quota-skew
python3 - "${report}" "${stats}" <<'EOF'
import json, sys
report = json.load(open(sys.argv[1]))
stats = json.load(open(sys.argv[2]))
assert report["sent"] == 200, f"loadgen lost requests: {report}"
assert report["quota_exceeded"] > 0, f"no quota sheds: {report}"
assert report["ok"] > 0, f"nothing succeeded beside the fat lines: {report}"
assert stats["quota_shed"] == report["quota_exceeded"], \
    f'ledger mismatch: {stats["quota_shed"]} vs {report["quota_exceeded"]}'
per_client = sum(c["quota_shed"] for c in stats["clients"].values())
assert per_client == stats["quota_shed"], \
    f'per-client quota ledger disagrees: {per_client} vs {stats["quota_shed"]}'
EOF
echo "OK: quota-skew (quota sheds ledgered globally and per client)"

# --- Golden guard ------------------------------------------------------
# The serving layer must not have drifted the batch tool's bytes
# (the full fixture here, malformed line included).
"${eval_bin}" --requests "${fixture_src}" --jobs 4 \
    > "${scratch}/eval.jsonl"
diff -u "${golden}" "${scratch}/eval.jsonl" || {
    echo "FAIL: memsense_eval output drifted from golden" >&2
    exit 1
}
echo "OK: memsense_eval golden is byte-identical"

echo "Chaos check passed: the server survived every fault site and" \
     "overload shape with a consistent ledger, under ASan."
