#!/usr/bin/env bash
# Microbenchmark refresh: build Release, run the perf suite
# (bench/perf_suite, the google-benchmark kernels of perf_microbench)
# and print each kernel's fresh median beside the committed row of
# BENCH_memsense.json. Nothing is flagged: one run of one tree on a
# shared machine cannot tell a regression from host drift. Compare two
# trees end to end and layer by layer with scripts/ab.sh, which runs
# interleaved pairs (docs/performance.md). To record a row after
# intentional perf work, copy it from the fresh file into the committed
# one, with the runs it rests on.
#
# Usage: scripts/check_perf.sh [build_dir]
#   CHECK_PERF_ARGS="..."   extra perf_suite arguments (e.g.
#                           --benchmark-filter BM_Solver for one row)
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${1:-${repo_root}/build}"
committed="${repo_root}/BENCH_memsense.json"

cmake -B "${build_dir}" -S "${repo_root}" -DCMAKE_BUILD_TYPE=Release
cmake --build "${build_dir}" -j --target perf_suite perf_microbench

fresh="$(mktemp -d)/BENCH_memsense.json"
"${build_dir}/bench/perf_suite" --out "${fresh}" ${CHECK_PERF_ARGS:-}

python3 - "${committed}" "${fresh}" <<'PY'
import json, sys

committed = json.load(open(sys.argv[1])).get("microbench", {})
fresh = json.load(open(sys.argv[2])).get("microbench", {})
for name, row in fresh.items():
    old = committed.get(name, {}).get("median_ns")
    new = row["median_ns"]
    shown = f"committed {old:.4g} ns, " if old else ""
    print(f"{name}: {shown}fresh {new:.4g} ns (MAD {row['mad_ns']:.3g})")
PY
echo "Fresh results left at ${fresh}."
