#!/usr/bin/env bash
# A/A check: the same code measured twice must agree with itself.
#
# Runs the suite as two sets, A and B, of N invocations per workload
# (default 5, each with its own seed), alternating A and B so that slow
# drift of the machine hits both alike. Then prints, for every
# (workload, end-to-end metric) pair, both medians, how much worse B's is
# than A's as a share of A's, and each set's spread (interquartile range
# over median), against the metric's bound from BENCHMARK.json. Exits
# non-zero if any |delta| exceeds its bound, or any run fails.
#
#   benchmark/aa.sh [runs-per-set] [seconds-per-run]
#
# Run from the repository root. Needs python3 for the statistics.
set -euo pipefail

runs=${1:-5}
seconds=${2:-$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')}
out=benchmark/out/aa
mkdir -p "$out"
rm -f "$out"/*.jsonl

mapfile -t command < <(python3 -c 'import json; print("\n".join(json.load(open("BENCHMARK.json"))["command"]))')
mapfile -t workloads < <(python3 -c 'import json; print("\n".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')

for workload in "${workloads[@]}"; do
  for ((i = 0; i < runs; i++)); do
    for set in A B; do
      seed=$((1000 * i + 17))
      [[ $set == B ]] && seed=$((seed + 500))
      echo "== $workload set $set run $((i + 1))/$runs seed $seed" >&2
      "${command[@]}" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 \
        | tail -n 1 >>"$out/$workload.$set.jsonl"
    done
  done
done

python3 - "$out" <<'PY'
import json, statistics, sys
out = sys.argv[1]
manifest = json.load(open("BENCHMARK.json"))
breaches = 0
print(f"{'workload':<22}{'metric':<16}{'median A':>14}{'median B':>14}{'B worse by':>12}{'spread A':>10}{'spread B':>10}{'bound':>8}")
for w in manifest["workloads"]:
    sets = {}
    for s in "AB":
        rows = [json.loads(l) for l in open(f"{out}/{w['name']}.{s}.jsonl")]
        if not all(r["correct"] and r["failed"] == 0 for r in rows):
            print(f"{w['name']} set {s}: a run was incorrect or had failed operations")
            breaches += 1
        sets[s] = rows
    for m in manifest["end_to_end"]:
        med, spread = {}, {}
        for s, rows in sets.items():
            values = [r["metrics"][m["name"]]["value"] for r in rows]
            med[s] = statistics.median(values)
            q = statistics.quantiles(values, n=4) if len(values) > 1 else [med[s]] * 3
            spread[s] = (q[2] - q[0]) / med[s]
        worse = (med["B"] - med["A"]) / med["A"]
        if m["better"] == "higher":
            worse = -worse
        flag = ""
        if abs(worse) > m["bound"]:
            breaches += 1
            flag = "  BREACH"
        print(f"{w['name']:<22}{m['name']:<16}{med['A']:>14.6g}{med['B']:>14.6g}{worse:>+12.1%}{spread['A']:>10.1%}{spread['B']:>10.1%}{m['bound']:>8.0%}{flag}")
print("A/A", "FAILED" if breaches else "ok", f"({breaches} breaches)")
sys.exit(1 if breaches else 0)
PY
