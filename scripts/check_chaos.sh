#!/usr/bin/env bash
# Chaos harness for the long-running evaluation server: build the
# daemon and the load generator under AddressSanitizer, then drive a
# real memsense_serve process over a Unix socket through a matrix of
# injected fault sites and stress configurations. Every scenario must
# end with: loadgen exit 0 with every request classified, server exit 0
# after SIGTERM, and a consistent reply ledger in --stats-json
# (accepted == ok + error + write-failure replies). The deadline
# scenario feeds the fixture through --stdio instead, so its lines
# arrive as one burst. The batch tool's golden output is re-checked at
# the end so none of the serving-layer churn can drift the byte-stable
# evaluation contract.
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
# (default: the shared fixture on 4 connections).
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

# Baseline: no faults, default flags.
SERVER_FLAGS=()
run_scenario baseline ""

# One scenario per server-side fault site, firing probabilistically.
for site in server.read server.parse server.solve server.write \
            evaluator.solve; do
    SERVER_FLAGS=()
    run_scenario "fault-${site}" "seed=7;${site}:throw:p=0.1"
done

# Backpressure: 16 closed-loop connections against solves that half the
# time stall 20ms, at default flags. Each reader answers its own
# connection's lines, so a slow solve holds back only its own client,
# whose next request waits in its socket: every request is answered
# ok, none is refused as overloaded, none is lost. The fixture is the
# shared one without the lines the golden answers with an error (the
# malformed and the out-of-domain line), so "every request ok" is the
# whole contract.
ok_requests="${scratch}/ok_requests.jsonl"
paste -d '\n' "${fixture_src}" "${golden}" | paste - - \
    | grep -F '"ok":true' | cut -f1 > "${ok_requests}"
SERVER_FLAGS=()
CONNECTIONS=16 REQUESTS="${ok_requests}" \
    run_scenario backpressure "seed=7;server.solve:delay=20:p=0.5"
python3 - "${scratch}/backpressure.report.json" \
    "${scratch}/backpressure.stats.json" <<'PY'
import json, sys
report = json.load(open(sys.argv[1]))
stats = json.load(open(sys.argv[2]))
assert report["sent"] == 200, f"loadgen lost requests: {report}"
assert report["ok"] == report["sent"], f"not every request ok: {report}"
assert report["overloaded"] == 0, f"overloaded replies: {report}"
assert stats["accepted"] == 200, f"server ledger: {stats}"
print(f'ok {report["ok"]} of {report["sent"]},'
      f' p99 {report["p99_ms"]} ms')
PY
echo "OK: backpressure (slow solves answered, nothing refused)"

# Deadline pressure: the whole fixture arrives on stdin as one burst,
# so each reader pass holds many lines, while 40% of solves stall 25ms
# against a 15ms default budget that starts with the pass. A line
# waiting in its pass behind a stalled solve must be refused
# deadline_exceeded; every other line gets the golden's bytes, in line
# order, and the ledger holds.
deadline_faults="seed=11;server.solve:delay=25:p=0.4"
echo "=== scenario deadlines (faults: ${deadline_faults}) ==="
MEMSENSE_FAULTS="${deadline_faults}" "${serve_bin}" --stdio \
    --default-deadline-ms 15 \
    --stats-json "${scratch}/deadlines.stats.json" \
    < "${fixture_src}" > "${scratch}/deadlines.replies.jsonl" \
    2>"${scratch}/deadlines.server.log" || {
    echo "FAIL(deadlines): memsense_serve --stdio exited non-zero" >&2
    cat "${scratch}/deadlines.server.log" >&2
    exit 1
}
python3 - "${golden}" "${scratch}/deadlines.replies.jsonl" \
    "${scratch}/deadlines.stats.json" <<'PY'
import json, sys
golden = open(sys.argv[1]).read().splitlines()
replies = open(sys.argv[2]).read().splitlines()
stats = json.load(open(sys.argv[3]))
assert len(replies) == len(golden), \
    f"{len(replies)} replies for {len(golden)} request lines"
expired = 0
for want, got in zip(golden, replies):
    if got == want:
        continue
    refusal = {"id": json.loads(want)["id"], "ok": False,
               "error": {"type": "deadline_exceeded",
                         "message": "deadline expired before the solve",
                         "fatal": False, "attempts": 0}}
    assert json.loads(got) == refusal, \
        f"{got!r} is neither the golden {want!r} nor its refusal"
    expired += 1
assert expired > 0, "no line ran out of budget behind a stalled solve"
assert stats["deadline_exceeded"] == expired, f"server ledger: {stats}"
assert stats["consistent"], f"server ledger: {stats}"
print(f"{expired} of {len(replies)} lines expired in their pass")
PY
echo "OK: deadlines (lines behind a stalled solve expire, the rest" \
     "match the golden)"

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
     "the backpressure and deadline loads with a consistent ledger," \
     "under ASan."
