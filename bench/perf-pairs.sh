#!/usr/bin/env bash
# Runs perfbench on two checkouts in alternating pairs and prints, as one
# JSON object in the shape of a workload entry of BENCH_replay.json, each
# side's median and quartiles of every end-to-end metric that BENCHMARK.json
# declares, each run's pass count, the per-pair comparison of each metric
# and the checks attempted and failed.
#
# Usage: bench/perf-pairs.sh PARENT_DIR CHANGE_DIR WORKLOAD SEED...
#
# Pair i (from 0) runs seed i with `python3 perfbench/run.py --workload
# WORKLOAD --seed SEED --seconds S --trace 0` in each checkout, the parent
# first when i is even and the change first when it is odd; S is
# BENCHMARK.json's run_seconds. Each run's output goes to standard error,
# once the run has ended. A run's pass count is the length of `pass_s` in
# its perfbench/results/WORKLOAD-seedSEED-trace0.json; it shows, for
# example, when `heap_live_mb` moved because perfbench's sample buffer grew
# with the passes rather than because of the program. A run that ends
# without a result is counted in `runs_without_result` and listed in
# `without_result` with its seed and perfbench's last line on standard
# error (such as `perfbench: run exceeded 170 s`). The first run in a
# checkout also builds it, which perfbench does not time.
set -euo pipefail
usage="usage: bench/perf-pairs.sh PARENT_DIR CHANGE_DIR WORKLOAD SEED..."
[ $# -ge 4 ] || { echo "$usage" >&2; exit 2; }
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
workload=$3
shift 3
for d in "$parent" "$change"; do
  [ -f "$d/perfbench/run.py" ] && [ -f "$d/BENCHMARK.json" ] || {
    echo "perf-pairs: $d is not a checkout with perfbench/run.py and BENCHMARK.json" >&2; exit 2; }
done
seconds=$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$change/BENCHMARK.json")
runs=$(mktemp)
log=$(mktemp)
err=$(mktemp)
trap 'rm -f "$runs" "$log" "$err"' EXIT

# one line per run: side, seed, pass count (or nothing), the run's last line
# on standard error, then its result line (or nothing)
run() {
  local side=$1 dir=$2 seed=$3 out="" passes=""
  echo "perf-pairs: $side $workload seed $seed" >&2
  if (cd "$dir" && python3 perfbench/run.py --workload "$workload" --seed "$seed" \
        --seconds "$seconds" --trace 0) >"$log" 2>"$err"; then
    out=$(tail -n 1 "$log")
    passes=$(python3 -c 'import json, sys; print(len(json.load(open(sys.argv[1]))["pass_s"]))' \
      "$dir/perfbench/results/$workload-seed$seed-trace0.json" || true)
  fi
  cat "$err" "$log" >&2
  printf '%s\t%s\t%s\t%s\t%s\n' "$side" "$seed" "$passes" "$(tail -n 1 "$err" | tr '\t' ' ')" "$out" >>"$runs"
}

i=0
for seed in "$@"; do
  if [ $((i % 2)) -eq 0 ]; then
    run parent "$parent" "$seed"; run change "$change" "$seed"
  else
    run change "$change" "$seed"; run parent "$parent" "$seed"
  fi
  i=$((i + 1))
done

python3 - "$change/BENCHMARK.json" "$runs" "$@" <<'EOF'
import json, statistics, sys

bench, runs_file, seeds = sys.argv[1], sys.argv[2], [int(s) for s in sys.argv[3:]]
names = [m["name"] for m in json.load(open(bench))["end_to_end"]]
result = {"parent": {}, "change": {}}
passes = {"parent": {}, "change": {}}
without = {"parent": [], "change": []}
for line in open(runs_file):
    side, seed, n, last_err, out = line.rstrip("\n").split("\t", 4)
    try:
        result[side][int(seed)] = json.loads(out)
        passes[side][int(seed)] = int(n) if n else None
    except ValueError:
        without[side].append({"seed": int(seed), "stderr": last_err})

def summary(side):
    got = result[side]
    s = {}
    for n in names:
        vals = [got[x]["metrics"][n]["value"] for x in seeds if x in got]
        if not vals:
            continue
        q = statistics.quantiles(vals, n=4, method="inclusive") if len(vals) > 1 else vals * 3
        s[n] = {"q1": round(q[0], 4), "median": round(statistics.median(vals), 4),
                "q3": round(q[2], 4), "runs": vals}
    s["checks_attempted"] = sum(int(r["attempted"]) for r in got.values())
    s["checks_failed"] = sum(int(r["failed"]) for r in got.values())
    s["passes"] = [passes[side][x] for x in seeds if x in got]
    s["runs_without_result"] = len(seeds) - len(got)
    s["without_result"] = without[side]
    return s

compared = {}
for n in names:
    c = {"change_lower": 0, "change_higher": 0, "equal": 0}
    for x in seeds:
        if x in result["parent"] and x in result["change"]:
            p = result["parent"][x]["metrics"][n]["value"]
            v = result["change"][x]["metrics"][n]["value"]
            c["change_lower" if v < p else "change_higher" if v > p else "equal"] += 1
    compared[n] = c

print(json.dumps({
    "seeds": seeds,
    "pairs": len(seeds),
    "order": "pair i (from 0) runs the parent first when i is even, the change first when odd",
    "parent": summary("parent"),
    "change": summary("change"),
    "pairs_compared": compared,
}, indent=1))
EOF
