#!/bin/sh
# The simulator workloads' virtual-time lines, diffed against a pinned copy.
#
# Runs each `benchmark/` simulator workload for one repetition at seed 42
# and keeps the two lines that depend on the schedule alone — events,
# transactions, messages, sim_vtps, p50, p99 and replica frontiers — with
# the host-speed `events/s` field cut out. A change that moves any of them
# moves the simulated system, not its speed, and must re-record the pin on
# purpose: `tools/sim_schedule.sh --record`.
set -eu
cd "$(dirname "$0")/.."
pin=tools/sim_schedule.txt
out=$(mktemp)
trap 'rm -f "$out"' EXIT

for w in sim_flexibft_lan sim_broadcast_heavy sim_crash_recover; do
    echo "== $w"
    cargo run -q --release --offline --manifest-path benchmark/Cargo.toml -- \
        --workload "$w" --rounds 1 --seed 42 --trace 0 |
        grep -E '^(1 repetitions|virtual time)' |
        sed -E 's/; [0-9]+ events\/s;/;/'
done > "$out"

if [ "${1:-}" = "--record" ]; then
    cp "$out" "$pin"
    echo "recorded $pin"
else
    diff -u "$pin" "$out"
    echo "virtual-time lines match $pin"
fi
