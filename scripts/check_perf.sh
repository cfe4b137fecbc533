#!/usr/bin/env bash
# Performance gate: build Release, run the perf suite (bench/perf_suite),
# write a fresh BENCH_memsense.json, and diff it against the committed
# copy at the repo root. A config whose warm-median wall time regressed
# by more than the threshold (default 25%) is flagged; a serve_batch
# throughput must also have dropped by more than three MADs.
#
# Wall-clock measurements on a shared/loaded machine are noisy, so the
# check is ADVISORY by default: regressions are printed but the script
# exits 0. Set CHECK_PERF_STRICT=1 (CI on a quiet runner) to make a
# flagged regression fail the build. To refresh the committed trajectory
# after intentional perf work, copy the fresh file over the committed
# one — the pre-campaign "baseline_pre_pr" section is carried forward
# automatically.
#
# Usage: scripts/check_perf.sh [build_dir]
#   CHECK_PERF_STRICT=1     exit non-zero on a flagged regression
#   CHECK_PERF_THRESHOLD=25 regression threshold, percent
#   CHECK_PERF_ARGS="..."   extra perf_suite arguments (e.g.
#                           --skip-microbench for a quick pass)
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${1:-${repo_root}/build}"
committed="${repo_root}/BENCH_memsense.json"
threshold="${CHECK_PERF_THRESHOLD:-25}"

cmake -B "${build_dir}" -S "${repo_root}" -DCMAKE_BUILD_TYPE=Release
cmake --build "${build_dir}" -j --target \
    perf_suite perf_microbench fig03_cpi_fits fig07_queuing_delay

fresh="$(mktemp -d)/BENCH_memsense.json"
"${build_dir}/bench/perf_suite" \
    --out "${fresh}" \
    --carry-baseline "${committed}" \
    ${CHECK_PERF_ARGS:-}

if [[ ! -f "${committed}" ]]; then
    echo "No committed BENCH_memsense.json; bootstrapping from this run."
    cp "${fresh}" "${committed}"
    exit 0
fi

# The comparison's exit status is inspected below; suspend -e so a
# flagged regression reaches the advisory/strict branch.
set +e
python3 - "${committed}" "${fresh}" "${threshold}" <<'EOF'
import json, sys

committed = json.load(open(sys.argv[1]))
fresh = json.load(open(sys.argv[2]))
threshold = float(sys.argv[3])

regressions = []
for key, old in committed.get("end_to_end", {}).items():
    new = fresh.get("end_to_end", {}).get(key)
    if new is None:
        print(f"note: {key} missing from the fresh run")
        continue
    o, n = old["warm_median_s"], new["warm_median_s"]
    delta = 100.0 * (n - o) / o if o else 0.0
    flag = " <-- REGRESSION" if delta > threshold else ""
    print(f"{key}: committed {o:.3f}s, fresh {n:.3f}s ({delta:+.1f}%){flag}")
    if delta > threshold:
        regressions.append(key)

base = committed.get("baseline_pre_pr", {}).get("end_to_end", {})
for key, old in base.items():
    new = fresh.get("end_to_end", {}).get(key)
    if new is None or not old.get("warm_median_s"):
        continue
    speedup = old["warm_median_s"] / new["warm_median_s"]
    print(f"{key}: {speedup:.2f}x vs pre-campaign baseline")

# serve_batch: higher is better (requests/s), and the batched mode
# must stay ahead of the one-request-per-pass baseline. Both rows carry
# a median and MAD over their repeats; a drop is flagged only when it
# exceeds the threshold AND three times the larger of the two MADs, and
# batching only counts as slower when it trails the baseline by more
# than three MADs, so run-to-run noise is not a regression.
old_sb = committed.get("serve_batch")
new_sb = fresh.get("serve_batch")
if new_sb:
    ratio = new_sb["batched_speedup"]
    print(f"serve_batch: fresh baseline {new_sb['baseline_rps']:.0f} rps,"
          f" batched {new_sb['batched_rps']:.0f} rps ({ratio:.2f}x)")
    for mode in ("baseline", "batched"):
        key = f"{mode}_rps"
        if not (old_sb and old_sb.get(key)):
            continue
        o, n = old_sb[key], new_sb[key]
        delta = 100.0 * (n - o) / o
        spread = max(old_sb.get(f"{mode}_mad_rps", 0.0),
                     new_sb.get(f"{mode}_mad_rps", 0.0))
        noise = f", {(n - o) / spread:+.1f} MAD" if spread > 0 else ""
        regressed = -delta > threshold and o - n > 3.0 * spread
        flag = " <-- REGRESSION" if regressed else ""
        print(f"serve_batch.{key}: committed {o:.0f}, fresh {n:.0f}"
              f" ({delta:+.1f}%{noise}){flag}")
        if regressed:
            regressions.append(f"serve_batch.{key}")
    gap = new_sb["baseline_rps"] - new_sb["batched_rps"]
    if ratio < 1.0 and gap > 3.0 * max(new_sb.get("baseline_mad_rps", 0.0),
                                       new_sb.get("batched_mad_rps", 0.0)):
        print("serve_batch: batching is SLOWER than the baseline"
              " <-- REGRESSION")
        regressions.append("serve_batch.batched_speedup")
else:
    print("note: serve_batch missing from the fresh run")

sys.exit(1 if regressions else 0)
EOF
rc=$?
set -e

if [[ ${rc} -ne 0 ]]; then
    if [[ "${CHECK_PERF_STRICT:-0}" == "1" ]]; then
        echo "FAIL: performance regression beyond ${threshold}%" >&2
        exit 1
    fi
    echo "WARNING: regression flagged (advisory; CHECK_PERF_STRICT=1 to enforce)"
fi
echo "Fresh results left at ${fresh}; copy over ${committed} to refresh."
