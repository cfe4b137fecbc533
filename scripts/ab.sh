#!/usr/bin/env bash
# Interleaved A/B comparison of two revisions on the repository benchmark.
#
#   scripts/ab.sh [options] <base-rev> [<head-rev>]
#
# Exports both revisions (any git tree-ish; <head-rev> defaults to HEAD)
# with `git archive` into a work directory, then runs N interleaved
# pairs of
#
#   bash membench/run.sh --workload W --seed S --seconds T --trace X
#
# in each tree, alternating which side runs first, with T the
# run_seconds of BENCHMARK.json. Each tree's own run.sh builds that
# tree (on the side's first run, incrementally after), so a failed first
# run is reported as a build failure and stops the comparison. It prints
# for every workload and metric of BENCHMARK.json (the end-to-end
# metrics, or the per-layer ones with --trace 1):
#   - the head's wins out of N pairs (ties count for neither side);
#   - each side's median and quartiles;
#   - whether the gain rule holds: the head wins at least nine tenths of
#     the pairs and the medians differ by more than the base's
#     interquartile range;
#   - a verdict: "gain", "worse" (head median worse than the base's by
#     more than the metric's bound), "unresolved" (a side's quartile
#     spread is wider than the bound), "CHANGED" (an invariant moved),
#     or "-";
#   - each run's host steal fraction.
#
# To compare uncommitted changes, stage them and pass the index's tree:
#   git add -A && scripts/ab.sh HEAD "$(git write-tree)"
#
# Options:
#   --workloads a,b,...  workloads to run (default: all in BENCHMARK.json)
#   --pairs N            interleaved pairs per workload (default 10)
#   --seed S             benchmark seed (default 1)
#   --trace 0|1          end-to-end (0, default) or per-layer (1) metrics
#   --work DIR           trees, builds and run logs
#                        (default ${TMPDIR:-/tmp}/memsense-ab); a tree
#                        already exported there is reused with its build
#
# Exit status: 0 when every run exited 0 and reported correct output with
# no failed operations, 1 otherwise, 2 on a usage error.
set -euo pipefail

usage() {
    sed -n '2,/^set -euo/p' "$0" | sed -e '$d' -e 's/^# \{0,1\}//' >&2
    exit 2
}

root="$(git -C "$(dirname "${BASH_SOURCE[0]}")" rev-parse --show-toplevel)"
workloads=""
pairs=10
seed=1
trace=0
work="${TMPDIR:-/tmp}/memsense-ab"
revs=()
while (($#)); do
    case "$1" in
    --workloads) workloads="$2"; shift 2 ;;
    --pairs) pairs="$2"; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --trace) trace="$2"; shift 2 ;;
    --work) work="$2"; shift 2 ;;
    -h | --help) usage ;;
    -*) echo "ab.sh: unknown option $1" >&2; usage ;;
    *) revs+=("$1"); shift ;;
    esac
done
((${#revs[@]} == 1 || ${#revs[@]} == 2)) || usage
[[ "$pairs" =~ ^[1-9][0-9]*$ ]] || { echo "ab.sh: bad --pairs" >&2; exit 2; }
[[ "$trace" == 0 || "$trace" == 1 ]] || { echo "ab.sh: bad --trace" >&2; exit 2; }
base_rev="${revs[0]}"
head_rev="${revs[1]:-HEAD}"

spec="$root/BENCHMARK.json"
if [[ -z "$workloads" ]]; then
    workloads="$(python3 -c 'import json,sys
print(",".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' "$spec")"
fi
seconds="$(python3 -c 'import json,sys
print(json.load(open(sys.argv[1]))["run_seconds"])' "$spec")"
IFS=, read -r -a wl <<<"$workloads"

mkdir -p "$work"
work="$(cd "$work" && pwd)"
stamp="$(date +%Y%m%d-%H%M%S)"
logs="$work/runs-$stamp"
mkdir -p "$logs"

# Export <rev> to $work/<side>-<tree id> once; print the directory.
prepare() {
    local side="$1" rev="$2" tree dir
    tree="$(git -C "$root" rev-parse --verify "$rev^{tree}")"
    dir="$work/$side-${tree:0:12}"
    if [[ ! -f "$dir/membench/run.sh" ]]; then
        rm -rf "$dir.tmp"
        mkdir -p "$dir.tmp"
        git -C "$root" archive "$tree" | tar -x -C "$dir.tmp"
        mv "$dir.tmp" "$dir"
    fi
    echo "$dir"
}

echo "ab.sh: base $base_rev, head $head_rev; logs in $logs" >&2
base_dir="$(prepare base "$base_rev")"
head_dir="$(prepare head "$head_rev")"

status=0
declare -A rev_of=([base]="$base_rev" [head]="$head_rev") built=()
run_one() {
    local side="$1" dir="$2" w="$3" i="$4"
    local out="$logs/$w.$i.$side.out"
    if (cd "$dir" && bash membench/run.sh --workload "$w" --seed "$seed" \
        --seconds "$seconds" --trace "$trace") >"$out" 2>"$out.err"; then
        built[$side]=1
    elif [[ -z "${built[$side]:-}" ]]; then
        echo "ab.sh: building $side (${rev_of[$side]}) or its first run failed;" \
            "see $out.err" >&2
        exit 1
    else
        echo "ab.sh: $side run $i of $w exited non-zero; see $out.err" >&2
        status=1
    fi
}

for ((i = 1; i <= pairs; i++)); do
    for w in "${wl[@]}"; do
        echo "ab.sh: pair $i/$pairs $w" >&2
        if ((i % 2)); then
            run_one base "$base_dir" "$w" "$i"
            run_one head "$head_dir" "$w" "$i"
        else
            run_one head "$head_dir" "$w" "$i"
            run_one base "$base_dir" "$w" "$i"
        fi
    done
done

python3 - "$spec" "$logs" "$pairs" "$trace" "$workloads" \
    "$base_rev" "$head_rev" "$seed" "$seconds" <<'EOF' || status=1
import json, math, re, statistics, sys

spec_path, logs, pairs, trace, workloads, base_rev, head_rev, seed, secs = sys.argv[1:]
pairs, trace = int(pairs), int(trace)
spec = json.load(open(spec_path))
metrics = spec["per_layer"] if trace else spec["end_to_end"]
need = math.ceil(0.9 * pairs)
bad = False

def load(w, i, side):
    path = f"{logs}/{w}.{i}.{side}.out"
    try:
        lines = open(path).read().splitlines()
    except OSError:
        return None
    run = {"steal": None, "invariant": set(), "result": None}
    for line in lines:
        if line.startswith("membench: host "):
            run["steal"] = json.loads(line[len("membench: host "):]).get("steal_frac")
        m = re.match(r"membench: metric (\S+) = .*invariant\)$", line)
        if m:
            run["invariant"].add(m.group(1))
    for line in reversed(lines):
        if line.startswith("{"):
            run["result"] = json.loads(line)
            break
    return run

def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3

def fmt(x):
    return f"{x:.4g}"

print(f"A/B: base {base_rev} vs head {head_rev}: {pairs} interleaved pairs, "
      f"seed {seed}, {secs} s, trace {trace}")
for w in workloads.split(","):
    runs = {s: [load(w, i, s) for i in range(1, pairs + 1)] for s in ("base", "head")}
    for s, rs in runs.items():
        for i, r in enumerate(rs, 1):
            res = r and r["result"]
            if not res or not res.get("correct") or res.get("failed", 1) != 0:
                print(f"!! {w} {s} run {i}: not correct or has failed operations")
                bad = True
    print(f"\n== {w}")
    print(f"{'metric':26} {'better':6} {'base median [q1, q3]':32} "
          f"{'head median [q1, q3]':32} {'change':>8} {'wins':>6}  {'rule':5} verdict")
    zero = []
    for m in metrics:
        name, better = m["name"], m["better"]
        vals = {}
        for s, rs in runs.items():
            vals[s] = [r["result"]["metrics"].get(name, {}).get("value")
                       if r and r["result"] else None for r in rs]
        if any(v is None for s in vals for v in vals[s]):
            print(f"{name:26} {better:6} (missing in some runs)")
            continue
        b, h = vals["base"], vals["head"]
        if not any(b + h):
            zero.append(name)
            continue
        sign = 1 if better == "higher" else -1
        wins = sum(1 for x, y in zip(b, h) if sign * (y - x) > 0)
        bq1, bmed, bq3 = quartiles(b)
        hq1, hmed, hq3 = quartiles(h)
        iqr = bq3 - bq1
        rule = wins >= need and sign * (hmed - bmed) > iqr
        change = (hmed - bmed) / bmed if bmed else float("nan")
        bound = m.get("bound")
        invariant = any(name in r["invariant"] for rs in runs.values() for r in rs if r)
        if invariant and len(set(b + h)) > 1:
            verdict = "CHANGED (invariant)"
        elif rule:
            verdict = "gain"
        elif bound is not None and sign * change < -bound:
            verdict = "worse"
        elif bound is not None and any(
                med and (q3 - q1) / abs(med) > bound
                for q1, med, q3 in ((bq1, bmed, bq3), (hq1, hmed, hq3))):
            verdict = "unresolved"
        else:
            verdict = "-"
        print(f"{name:26} {better:6} "
              f"{fmt(bmed) + ' [' + fmt(bq1) + ', ' + fmt(bq3) + ']':32} "
              f"{fmt(hmed) + ' [' + fmt(hq1) + ', ' + fmt(hq3) + ']':32} "
              f"{change:+8.1%} {wins:>3}/{pairs:<2}  {'holds' if rule else 'no':5} {verdict}")
    if zero:
        print(f"0 in every run (layer bypassed): {', '.join(zero)}")
    for s, rs in runs.items():
        steals = " ".join("?" if not r or r["steal"] is None else f"{r['steal']:.4f}"
                          for r in rs)
        print(f"steal_frac {s}: {steals}")
sys.exit(1 if bad else 0)
EOF
exit "$status"
