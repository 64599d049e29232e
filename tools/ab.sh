#!/usr/bin/env bash
# A/B comparison of two prebuilt benchmark binaries on one workload.
#
#   tools/ab.sh <parent-bin> <change-bin> <workload|all> <pairs> [seconds]
#
# With `all`, every workload BENCHMARK.json lists is compared in turn, one
# table each. Runs <pairs> alternated pairs per workload: pair i runs both binaries at seed
# 1000 i + 17, and which side goes first flips every pair so slow drift of
# the machine hits both alike. Seconds per run default to BENCHMARK.json's
# run_seconds. Prints, per end-to-end metric, each side's median with its
# quartiles, the change in per cent and how many pairs the change won (by
# the metric's direction in BENCHMARK.json), then any run that was
# incorrect, had failed operations, stalled rounds or dropped messages.
# A metric whose change median is worse than the parent median by more
# than its BENCHMARK.json bound is marked OVER BOUND, and the script then
# exits 1 once every workload has run. A metric whose parent runs spread
# wider than its bound (interquartile range over median) is marked
# UNRESOLVED, unless every change run beats every parent run: its runs
# cannot tell a change within the bound from none. That mark is
# informational and leaves the exit status alone.
# Each run's JSON line is kept in the directory printed first.
#
# Build each side's benchmark in its own tree first
# (cargo build --release --offline --manifest-path <tree>/benchmark/Cargo.toml);
# run from the repository root, with nothing else running. Needs python3.
set -euo pipefail

if [[ $# -lt 4 ]]; then
  sed -n '4p' "$0" | sed 's/^# *//' >&2
  exit 2
fi
parent=$1 change=$2 pairs=$4
seconds=${5:-$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')}
workloads=$3
if [[ $3 == all ]]; then
  workloads=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
fi

# compare WORKLOAD: runs its pairs and prints its table.
compare() {
  local workload=$1 out i order side bin seed run
  out=$(mktemp -d "${TMPDIR:-/tmp}/ab.$workload.XXXXXX")
  echo "runs kept in $out"

  for ((i = 0; i < pairs; i++)); do
    order="parent change"
    ((i % 2)) && order="change parent"
    for side in $order; do
      bin=$parent
      [[ $side == change ]] && bin=$change
      seed=$((1000 * i + 17))
      echo "== $workload pair $((i + 1))/$pairs $side seed $seed" >&2
      # An incorrect run exits non-zero; its JSON line is still kept.
      run=$("$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0) || true
      tail -n 1 <<<"$run" >>"$out/$side.jsonl"
      # Host workloads report "N stalled, M msgs dropped" above the JSON.
      grep -oE '[0-9]+ stalled, [0-9]+ msgs dropped' <<<"$run" >>"$out/$side.notes" || true
    done
  done

  python3 - "$out" "$workload" <<'PY' || over_bound=1
import json, statistics, sys
out, workload = sys.argv[1], sys.argv[2]
manifest = json.load(open("BENCHMARK.json"))
runs = {s: [json.loads(l) for l in open(f"{out}/{s}.jsonl")] for s in ("parent", "change")}
pairs = len(runs["parent"])

def fmt(v):
    return f"{v:,.0f}" if abs(v) >= 1000 else f"{v:.4g}"

def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]

over = False
print(f"{workload}: {pairs} pairs")
print(f"{'metric':<16}{'parent median [quartiles]':>36}{'change median [quartiles]':>36}{'change':>9}{'won':>7}")
for m in manifest["end_to_end"]:
    values = {s: [r["metrics"][m["name"]]["value"] for r in rows] for s, rows in runs.items()}
    cells = {}
    for s, v in values.items():
        lo, hi = quartiles(v)
        cells[s] = f"{fmt(statistics.median(v))} [{fmt(lo)}, {fmt(hi)}]"
    parent, change = (statistics.median(values[s]) for s in ("parent", "change"))
    sign = 1 if m["better"] == "higher" else -1
    won = sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"]))
    delta = (change - parent) / parent if parent else 0.0
    flag = ""
    if -sign * delta > m["bound"]:
        flag, over = "  OVER BOUND", True
    lo, hi = quartiles(values["parent"])
    beats_all = all(sign * (c - p) > 0 for p in values["parent"] for c in values["change"])
    if parent and (hi - lo) / abs(parent) > m["bound"] and not beats_all:
        flag += "  UNRESOLVED"
    print(f"{m['name']:<16}{cells['parent']:>36}{cells['change']:>36}{delta:>+9.1%}{won:>4}/{pairs}{flag}")
for s, rows in runs.items():
    bad = [r for r in rows if not r["correct"] or r["failed"]]
    notes = [l.strip() for l in open(f"{out}/{s}.notes")]
    stuck = [n for n in notes if not n.startswith("0 stalled, 0 msgs")]
    if bad or stuck:
        print(f"{s}: {len(bad)} incorrect or failing runs; {stuck}")
sys.exit(1 if over else 0)
PY
}

over_bound=0
for workload in $workloads; do
  compare "$workload"
done
exit "$over_bound"
